import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_in_order():
    # the library tour's blocks share names (dims, snr), so they run in one
    # namespace, in the order the README gives them
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 4
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
