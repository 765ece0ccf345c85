"""The README's library sketch runs as written and gives the gains its
comments quote."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_sketch_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    base, dsr = namespace["base"], namespace["dsr"]
    assert f"{base.controller.gamma:.5g}" == "1.9347"
    assert f"{dsr.controller.alpha:.3g}, {dsr.controller.beta:.5g}" == "0.391, 10.951"
    assert "'max_deformation_cm'" in capsys.readouterr().out
