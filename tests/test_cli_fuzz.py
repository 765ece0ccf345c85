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

from conftest import CONFIG_DIR
from strategies import cli_cases


def _bundled_with(name, **values):
    text = (CONFIG_DIR / name).read_text()
    for key, value in values.items():
        text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        assert count == 1
    return text


_OVERFLOWING_DELAYED = _bundled_with("chain4_dsr.cfg", alpha="1e300", beta="1e300",
                                     delay_multiple="2")
# raw steps: of one sample, which no step reaches, and of a duration that equals
# a horizon whose float sum rounds above it (7 * 0.1 is 0.7000000000000001)
_NO_STEPS = _bundled_with("chain4_baseline.cfg", start_index="0", duration="1e-12").replace(
    "kind = filtered_step", "kind = step")
_AT_THE_HORIZON = _bundled_with("chain4_baseline.cfg", dt="0.1", start_index="7",
                                duration="0.7").replace("kind = filtered_step", "kind = step")


@settings(max_examples=60, deadline=None)
@given(cli_cases())
# sample counts that no array can index
@example((_bundled_with("chain4_baseline.cfg", dt="1e-300"), ["simulate"]))
@example((_bundled_with("chain4_baseline.cfg", dt="1e-300"), ["sweep"]))
@example((_bundled_with("chain4_baseline.cfg", dt="1e-300"), ["tune", "--target-ts", "10"]))
@example((_bundled_with("chain4_dsr.cfg", duration="1e300"), ["simulate"]))
# a target whose decay per sample underflows to 0
@example(((CONFIG_DIR / "chain4_baseline.cfg").read_text(), ["tune", "--target-ts", "1e-300"]))
# a target so long on stiff springs that the baseline gain underflows to 0
@example(("[network]\nrobots = 2\nneighbor_stiffness = 1e20\nleader_stiffness = 1e20, 1e20\n"
          "[controller]\nkind = baseline\ngamma = 1e-21\ndt = 0.03\n"
          "[trajectory]\nkind = step\namplitude = 1.0\n[run]\nduration = 1.0\n",
          ["tune", "--target-ts", "1e308"]))
# a target whose unit step would take 1.6e17 samples
@example((_bundled_with("chain4_baseline.cfg", dt="0.1"), ["tune", "--target-ts", "1e15"]))
# delayed gains whose characteristic coefficients overflow
@example((_OVERFLOWING_DELAYED, ["stability"]))
@example((_OVERFLOWING_DELAYED, ["simulate"]))
@example((_OVERFLOWING_DELAYED, ["sweep"]))
@example((_NO_STEPS, ["sweep"]))
@example((_AT_THE_HORIZON, ["simulate"]))
# a misspelt key, which once left the delay at its default without a word
@example(((CONFIG_DIR / "chain4_dsr.cfg").read_text().replace(
    "delay_multiple = 1", "delay_mutliple = 3"), ["stability"]))
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
