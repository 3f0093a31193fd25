"""The README's library example runs and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    lambda_line, sweep_line = capsys.readouterr().out.splitlines()
    assert namespace["profile"]["achieving"][0] == 1
    assert float(lambda_line.split()[0]) == namespace["profile"]["lambda_star"]
    assert sweep_line.startswith("NotNiceEvidence ")
    assert abs(namespace["niceness"].fitted_exponent(namespace["sweep"]["rows"]) - 1.0) < 0.05
