import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_readme_library_examples_run():
    # the blocks build on each other (the kernel example reuses fs), so they
    # run in one namespace, in order
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["res"].coords.shape == (300, 2)
    assert not namespace["k"].flags.writeable  # k became D's read-only array
