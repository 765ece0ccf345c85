"""Fuzz the command line: any scenario text and argv must end in one of
the documented exit codes 0-5, never in an exception out of ``main``."""
import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings

from cohesive_transport.cli import main

from strategies import cli_cases

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _bundled_with(name, **values):
    text = (CONFIG_DIR / name).read_text()
    for key, value in values.items():
        text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        assert count == 1
    return text


_OVERFLOWING_DELAYED = _bundled_with("chain4_dsr.cfg", alpha="1e300", beta="1e300",
                                     delay_multiple="2")


@settings(max_examples=60, deadline=None)
@given(cli_cases())
# sample counts that no array can index
@example((_bundled_with("chain4_baseline.cfg", dt="1e-300"), ["simulate"]))
@example((_bundled_with("chain4_baseline.cfg", dt="1e-300"), ["sweep"]))
@example((_bundled_with("chain4_baseline.cfg", dt="1e-300"), ["tune", "--target-ts", "10"]))
@example((_bundled_with("chain4_dsr.cfg", duration="1e300"), ["simulate"]))
# a target whose decay per sample underflows to 0
@example(((CONFIG_DIR / "chain4_baseline.cfg").read_text(), ["tune", "--target-ts", "1e-300"]))
# delayed gains whose characteristic coefficients overflow
@example((_OVERFLOWING_DELAYED, ["stability"]))
@example((_OVERFLOWING_DELAYED, ["simulate"]))
@example((_OVERFLOWING_DELAYED, ["sweep"]))
def test_cli_ends_in_a_documented_exit_code(case):
    text, command = case
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "fuzz.cfg", Path(tmp) / "out"
        config.write_text(text)
        argv = command + ["--out", str(out)]
        if command[0] != "reproduce":
            argv += ["--config", str(config)]
        err = io.StringIO()
        with (warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(err)):
            warnings.simplefilter("ignore")
            code = main(argv)
        assert code in range(6), err.getvalue()
        # only a success or a reproduction outside tolerance writes results
        assert code in (0, 4) or not out.exists(), err.getvalue()
