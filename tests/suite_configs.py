"""The pinned scenario files under configs/, as the tests read them."""

from pathlib import Path

from damage_sim.config import build_scenario, parse_config_text

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SUITE = ("quadratic", "logarithmic", "indicator_box", "strong_damage",
         "robin_loaded")


def config_text(name: str) -> str:
    """Text of configs/<name>.cfg."""
    return (CONFIG_DIR / f"{name}.cfg").read_text()


def standard_suite() -> dict:
    """The five acceptance scenarios (N=201, K=400, T=1)."""
    return {name: build_scenario(parse_config_text(config_text(name)))
            for name in SUITE}
