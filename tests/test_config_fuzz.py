"""Config-type fuzzing of the command line: one RunConfig key of a config file set to a JSON
value of any type, through cli.main in-process."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from qgatelab.cli import _COMMANDS, _CONFIG_KEYS, ENV_OUT_DIR, main  # noqa: E402


# names without a path separator, and neither "." nor "..": a directory or a missing parent
# directory as the report path is an output failure (exit 3), not a configuration one
_NAMES = st.text(st.characters(blacklist_characters="/"), max_size=8).filter(lambda name: name not in (".", ".."))
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | _NAMES
_VALUES = _SCALARS | st.lists(_SCALARS, max_size=4) | st.dictionaries(_NAMES, _SCALARS, max_size=2)
# the keys not drawn hold small settings, so that a run with a valid draw takes milliseconds
_SMALL = {"q_values": [2.0], "psi_grid": [0.5, 2.0], "cutoff": 3}


@pytest.mark.parametrize("key", sorted(_CONFIG_KEYS))
@hypothesis.settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture],
)
@hypothesis.given(command=st.sampled_from(sorted(_COMMANDS)), value=_VALUES)
def test_any_json_value_of_any_key_exits_zero_one_or_two(tmp_path, monkeypatch, capsys, key, command, value):
    monkeypatch.delenv(ENV_OUT_DIR, raising=False)
    work = tmp_path / str(len(list(tmp_path.iterdir())))
    work.mkdir()
    monkeypatch.chdir(work)
    (work / "config.json").write_text(json.dumps({**_SMALL, key: value}))
    code = main([command, "--config", "config.json"])
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (code, err)
    if code == 2:
        assert err.startswith("qgatelab: configuration error"), err
        assert [path.name for path in work.iterdir()] == ["config.json"]
