import re
from pathlib import Path

import pytest

from clmds import ValidationError
from clmds.cli import build_run_config, parse_config

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


def test_the_readme_run_cfg_builds_a_run_config(tmp_path):
    # every key of README's example is known and its value parses; with the
    # example's sparsify = none, an n_sparse is refused, as the README says
    (block,) = [b for b in re.findall(r"^```\n(.*?)^```$", README.read_text(), re.S | re.M)
                if b.startswith("# run.cfg\n")]
    path = tmp_path / "run.cfg"
    path.write_text(block)
    cfg = build_run_config(parse_config(str(path), []))
    assert (cfg.sparsify, cfg.n_sparse) == ("none", None)
    with pytest.raises(ValidationError, match="n_sparse"):
        build_run_config(parse_config(str(path), ["n_sparse=5"]))
    sparse = build_run_config(parse_config(str(path), ["sparsify=random", "n_sparse=5"]))
    assert (sparse.sparsify, sparse.n_sparse) == ("random", 5)
