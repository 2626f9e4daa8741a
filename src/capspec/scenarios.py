"""Scenario files and shipped channel-table fixtures.

Scenarios are plain INI files with a [scenario] section plus one
[user.K] section per active user.  Bands are stored in normalized
frequency on [0, 1) (channel tables quoted in rad/sample convert by
dividing by 2*pi and wrapping negatives); power densities stay in dBm
per rad/sample.
"""

from __future__ import annotations

import configparser
import difflib
from dataclasses import MISSING, fields
from functools import partial
from importlib import resources
from pathlib import Path

from .analysis import DetectorSpec
from .patterns import CosetPattern, PatternFamily, design_pair_cover_family
from .sensing import BIN_MODES, SYNC_MODES, ScenarioConfig, UserSpec

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


def _read_ini(source, sections) -> configparser.ConfigParser:
    """An INI file (path, or file-like) of ``sections`` and [user.<label>], every key valued."""
    # no header names the empty default section, so [DEFAULT], whose keys
    # would reach every section, is an ordinary and so an unknown section
    parser = configparser.ConfigParser(default_section="", inline_comment_prefixes=(";",))
    if hasattr(source, "read"):
        parser.read_file(source)
    else:
        parser.read_string(Path(source).read_text(encoding="utf-8"), source=str(source))
    for name in parser.sections():
        if name not in sections and not name.startswith("user."):
            raise _unknown("unknown section", name, [*sections, "user.<label>"])
        for key, value in parser[name].items():
            if not value.strip():
                raise ValueError(f"[{name}] needs a value for {key!r}")
    return parser


def load_scenario(source) -> ScenarioConfig:
    """Read a scenario INI file (path, or file-like via .read)."""
    return scenario_from_parser(_read_ini(source, ("scenario",)))


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


def parse_patterns(text: str, period: int) -> tuple[CosetPattern, ...]:
    """``m0,m1,... | m0,m1,... | ...``: one pattern of ``period`` per chunk."""
    return tuple(
        CosetPattern(period, parse_marks(chunk)) for chunk in text.split("|") if chunk.strip()
    )


def _unknown(what: str, name: str, known) -> ValueError:
    close = difflib.get_close_matches(name, list(known), n=1)
    return ValueError(f"{what} {name!r}" + (f" (did you mean {close[0]!r}?)" if close else ""))


def _read_section(section: configparser.SectionProxy, table: dict, cls) -> dict:
    """Keyword arguments for dataclass ``cls``: each key ``section`` holds, converted by
    ``table`` (key -> converter).  A missing key keeps its default, or fails if it has none."""
    kwargs = {}
    for key, text in section.items():
        if key not in table:
            raise _unknown(f"[{section.name}] unknown key", key, table)
        try:
            kwargs[key] = table[key](text)
        except ValueError as exc:
            raise ValueError(f"[{section.name}] {key}: {exc}") from None
    for f in fields(cls):
        if f.name in table and f.name not in kwargs and f.default is f.default_factory is MISSING:
            raise ValueError(f"[{section.name}] needs a value for {f.name!r}")
    return kwargs


def _one_of(choices: tuple[str, ...], text: str) -> str:
    if text not in choices:
        raise ValueError(f"{text!r} is not one of {choices}")
    return text


# [scenario] key -> converter, for the keys every bin mode reads
_SCENARIO_KEYS = {"period": int, "samples_per_coset": int, "noise_dbm": float,
                  "sync": partial(_one_of, SYNC_MODES), "bin_mode": partial(_one_of, BIN_MODES)}
# [scenario] keys that only one bin mode reads; ``marks`` becomes the pattern,
# and exactly one of ``family`` and ``family_marks_per_pattern`` the family
_BIN_MODE_KEYS = {
    "uncorrelated": {"marks": parse_marks, "clusters": int, "sensors_per_cluster": int},
    "correlated": {"family": str, "family_marks_per_pattern": int, "sensors_per_group": int},
}
_USER_KEYS = {"band": parse_band, "power_dbm": float, "path_loss_db": _parse_floats}


def scenario_from_parser(parser: configparser.ConfigParser) -> ScenarioConfig:
    if "scenario" not in parser:
        raise ValueError("the [scenario] section is missing")
    table = _SCENARIO_KEYS | _BIN_MODE_KEYS["uncorrelated"] | _BIN_MODE_KEYS["correlated"]
    values = _read_section(parser["scenario"], table, ScenarioConfig)
    user_sections = [parser[name] for name in parser.sections() if name.startswith("user.")]
    users = tuple(UserSpec(**_read_section(sec, _USER_KEYS, UserSpec)) for sec in user_sections)
    mode = values.get("bin_mode", ScenarioConfig.bin_mode)
    unread = [k for k in values if k not in _SCENARIO_KEYS and k not in _BIN_MODE_KEYS[mode]]
    if unread:
        raise ValueError(f"[scenario] bin_mode = {mode} does not read {', '.join(unread)}")
    period = values["period"]
    if mode == "uncorrelated":
        if "marks" not in values:
            raise ValueError("[scenario] needs a value for 'marks'")
        values["pattern"] = CosetPattern(period, values.pop("marks"))
    elif len({"family", "family_marks_per_pattern"} & values.keys()) != 1:
        raise ValueError("[scenario] needs exactly one of 'family' and 'family_marks_per_pattern'")
    elif "family" in values:
        values["family"] = PatternFamily(period, parse_patterns(values["family"], period))
    else:
        values["family"] = design_pair_cover_family(period, values.pop("family_marks_per_pattern"))
    return ScenarioConfig(users=users, **values)


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
