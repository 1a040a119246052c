"""Property test of ``kslab run`` over generated configurations.

Every configuration, valid or not, must end in one of the documented exit
codes (0, 2, 3, 4, 64) and never in a traceback, and a usage error (64) must
name, as a whole key, a key that the configuration sets.  Configurations
start from a small valid base (tiny grids, short horizons), override any
subset of keys with in-range values and corrupt at most one key with a bad
token.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from kslab.cli import main

EXIT_CODES = {0, 2, 3, 4, 64}
BAD = ["nan", "inf", "-inf", "abc", "", "1e400", "-1", "0", "-0", "1.5", "2", "100", "1e308"]
BASE = {
    "grid.d": "1",
    "grid.n_axis": "16",
    "grid.box_len": "16",
    "init.M": "2",
    "monitor.R": "2",
    "run.t_end": "0.02",
}


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False).map(repr)


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


VALID = {
    "grid.d": st.sampled_from(["1", "2", "3"]),
    "grid.box_len": _floats(14.0, 16.0),
    "params.chi": _floats(0.0, 10.0),
    "params.tau": _floats(0.05, 5.0),
    "params.lambda": _floats(0.0, 5.0),
    "params.mu": _floats(0.0, 20.0),
    "init.preset": st.sampled_from(["gaussian_bump", "two_bumps", "constant", "random_smooth"]),
    "init.amplitude": _floats(0.0, 30.0),
    "init.width": _floats(0.05, 10.0),
    "init.M": _floats(0.5, 3.4),
    "init.seed": _ints(0, 10**6),
    "run.dt": st.one_of(st.just("auto"), _floats(1e-3, 0.05)),
    "run.t_end": _floats(1e-4, 0.05),
    "run.monitor_every": _ints(1, 6),
    "monitor.k": _ints(3, 6),
    "monitor.R": _floats(2.0, 3.0),
    "monitor.centers": st.just("max+lattice"),
}


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    overrides=st.fixed_dictionaries({}, optional=VALID),
    corruption=st.lists(st.tuples(st.sampled_from(sorted(VALID)), st.sampled_from(BAD)), max_size=1),
)
@example(overrides={}, corruption=[("params.mu", "-1")])
@example(overrides={}, corruption=[("grid.d", "100")])
@example(overrides={}, corruption=[("init.amplitude", "1e308")])
@example(overrides={"init.preset": "random_smooth"}, corruption=[("init.amplitude", "1e308")])
@example(overrides={"grid.n_axis": "1099511627776"}, corruption=[])
def test_run_exits_with_documented_code(overrides, corruption):
    kv = {**BASE, **overrides, **dict(corruption)}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text("".join(f"{key}={value}\n" for key, value in kv.items()))
        argv = ["run", "--config", str(cfg), "--out", str(Path(tmp) / "out")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    event(f"exit code {code}")  # shown by --hypothesis-show-statistics
    assert code in EXIT_CODES, (code, kv)
    assert "Traceback" not in err.getvalue(), kv
    if code == 64:  # "grid.dimension" does not name grid.d
        named = [k for k in kv if re.search(rf"(?<![\w.]){re.escape(k)}(?!\.?\w)", err.getvalue())]
        assert named, (err.getvalue(), kv)
