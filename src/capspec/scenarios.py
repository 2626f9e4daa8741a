"""Scenario files and shipped channel-table fixtures.

Scenarios are plain INI files with a [scenario] section plus one
[user.K] section per active user.  Bands are stored in normalized
frequency on [0, 1) (channel tables quoted in rad/sample convert by
dividing by 2*pi and wrapping negatives); power densities stay in dBm
per rad/sample.
"""

from __future__ import annotations

import configparser
from importlib import resources
from pathlib import Path

from .analysis import DetectorSpec
from .patterns import CosetPattern, PatternFamily, design_pair_cover_family
from .sensing import BIN_MODES, ScenarioConfig, UserSpec

# Extra cosets activating a milder compression on top of the base ruler,
# in activation order (fixture data for the reconstruction experiments).
EXPERIMENT1_EXTRA_COSETS = (2, 12, 14)

# Two fixture sets of (base ruler, activation order of extra cosets) per period.
PATTERN_SETS = {
    1: {
        18: ((0, 1, 4, 7, 9), (17, 2, 13, 12, 15, 6)),
        14: ((0, 1, 2, 4, 7), (10, 6, 12, 5)),
        10: ((0, 1, 3, 5), (8, 4)),
    },
    2: {
        18: ((0, 1, 4, 7, 9), (5, 2, 6, 17, 15, 14)),
        14: ((0, 1, 2, 4, 7), (12, 10, 13, 11)),
        10: ((0, 1, 3, 5), (4, 6)),
    },
}

# Extra-coset orders used by the white-noise variance study at period 18.
VARIANCE_EXTRA_PATTERNS = {
    "pattern1": (17, 11, 2, 6),
    "pattern2": (3, 5, 6, 8),
    "pattern3": (2, 3, 5, 6),
}

# Fixed single-pattern baseline for the correlated-bins comparison at N=40.
CORRELATED_UB_BASELINE = (0, 1, 2, 3, 4, 9, 10, 15, 16, 18, 20, 30, 33, 37)


def extend_pattern(base: CosetPattern, extras, count: int) -> CosetPattern:
    """Activate the first ``count`` extra cosets on top of ``base``."""
    if count > len(extras):
        raise ValueError(f"only {len(extras)} extra cosets available, asked {count}")
    return CosetPattern(base.period, base.marks + tuple(extras[:count]))


def fixture_path(name: str):
    return resources.files("capspec") / "fixtures" / name


def load_scenario(source) -> ScenarioConfig:
    """Read a scenario INI file (path, or file-like via .read)."""
    parser = configparser.ConfigParser()
    if hasattr(source, "read"):
        parser.read_string(source.read())
    else:
        parser.read_string(Path(source).read_text(encoding="utf-8"), source=str(source))
    return scenario_from_parser(parser)


def load_fixture(name: str) -> ScenarioConfig:
    with fixture_path(name).open("r", encoding="utf-8") as f:
        return load_scenario(f)


def parse_marks(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok)


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(" ", "").split(",") if tok)


def parse_band(text: str) -> tuple[float, float]:
    """``lo,hi`` in normalized frequency; exactly two values."""
    band = _parse_floats(text)
    if len(band) != 2:
        raise ValueError(f"a band needs two values lo,hi, got {text!r}")
    return band


_NO_DEFAULT = object()


def required(
    section: configparser.SectionProxy, key: str, convert=str, default=_NO_DEFAULT
):
    """Value of a key, converted; a missing key gives ``default`` if one is
    given, else an error.  Errors name the section and key."""
    text = section.get(key, None)
    if text is None and default is not _NO_DEFAULT:
        return default
    if text is None or not text.strip():
        raise ValueError(f"[{section.name}] needs a value for {key!r}")
    try:
        return convert(text)
    except ValueError as exc:
        raise ValueError(f"[{section.name}] {key}: {exc}") from None


def scenario_from_parser(parser: configparser.ConfigParser) -> ScenarioConfig:
    if "scenario" not in parser:
        raise ValueError("scenario file is missing its [scenario] section")
    sec = parser["scenario"]
    period = required(sec, "period", int)
    users = []
    for name in parser.sections():
        if not name.startswith("user"):
            continue
        usec = parser[name]
        users.append(
            UserSpec(
                band=required(usec, "band", parse_band),
                power_dbm=required(usec, "power_dbm", float),
                path_loss_db=required(usec, "path_loss_db", _parse_floats),
            )
        )
    bin_mode = sec.get("bin_mode", "uncorrelated")
    if bin_mode not in BIN_MODES:
        raise ValueError(f"[scenario] bin_mode {bin_mode!r} is not one of {BIN_MODES}")
    pattern = None
    family = None
    if bin_mode == "uncorrelated":
        pattern = CosetPattern(period, required(sec, "marks", parse_marks))
    else:
        if sec.get("family", None):
            groups = [
                parse_marks(chunk) for chunk in sec.get("family").split("|") if chunk.strip()
            ]
            family = PatternFamily(
                period, tuple(CosetPattern(period, g) for g in groups)
            )
        else:
            family = design_pair_cover_family(
                period, required(sec, "family_marks_per_pattern", int)
            )
    return ScenarioConfig(
        period=period,
        samples_per_coset=required(sec, "samples_per_coset", int),
        users=tuple(users),
        noise_dbm=required(sec, "noise_dbm", float),
        pattern=pattern,
        family=family,
        clusters=required(sec, "clusters", int, 1),
        sensors_per_cluster=required(sec, "sensors_per_cluster", int, 1),
        sensors_per_group=required(sec, "sensors_per_group", int, 1),
        sync=sec.get("sync", "unsynchronized"),
        bin_mode=bin_mode,
        seed=required(sec, "seed", int, 0),
    )


def multiband_detector() -> DetectorSpec:
    """Threshold detector of the detection experiments: 11-point block
    averages, 121 centered points per active band, 363 quiet points in a
    far-off band."""
    return DetectorSpec(
        active_bands=((0.205, 0.245), (0.155, 0.195), (0.105, 0.145)),
        quiet_bands=((0.615, 0.735),),
        avg_width=11,
        points_per_band=121,
        quiet_points=363,
    )
