"""Every exported name resolves: a deleted function must not leave its export behind, and
README's library example runs against the API as it is."""

import ast
import contextlib
import importlib
import inspect
import io
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import lofiq
from lofiq.mx import mx_quantize
from lofiq.nvfp4 import nvfp4_quantize
from lofiq.tensor import Record

MODULES = sorted(m.name for m in pkgutil.iter_modules(lofiq.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"lofiq.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"lofiq.{name}.__all__ names what it does not define"


def test_package_imports_name_what_exists():
    tree = ast.parse(Path(lofiq.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        source = importlib.import_module(f"lofiq.{node.module}")
        for alias in node.names:
            assert hasattr(source, alias.name), (node.module, alias.name)
            assert hasattr(lofiq, alias.asname or alias.name), alias.name
    for name in getattr(lofiq, "__all__", ()):
        assert hasattr(lofiq, name), name


def test_oracles_import_nothing_from_lofiq():
    # the oracles are a second route to each result, so none may reuse library code
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert "numpy" in imported
    assert [m for m in imported if m.startswith(".") or m.split(".")[0] == "lofiq"] == []


def test_only_tensor_builds_a_tensor_around_its_check():
    # every Tensor is made by tensor.py (Tensor, as_tensor, of_checked, made_in_chunks,
    # zero_padded), so no other module can hold data that skipped the finiteness check
    for path in sorted(Path(lofiq.__file__).parent.glob("*.py")):
        if path.name != "tensor.py":
            text = path.read_text(encoding="utf-8")
            assert "_hold" not in text and "__new__" not in text, path.name


def test_every_record_has_one_method_per_builder():
    # rounded() calls round and dequantized() calls round_decode: each record defines both,
    # with no decode step between them, no default to override and no optional argument
    records = {cls.__name__: cls for name in MODULES
               for cls in vars(importlib.import_module(f"lofiq.{name}")).values()
               if isinstance(cls, type) and issubclass(cls, Record) and cls is not Record}
    assert sorted(records) == ["BlockQuantized", "Hif4Quantized", "IntQuantized",
                               "ScaledHif8Quantized"]
    # MX and NVFP4 are two scale rules of one block-scaled record
    x = np.ones((2, 32))
    assert type(mx_quantize(x, 1, "e2m1")) is type(nvfp4_quantize(x, 1)) is records["BlockQuantized"]
    assert not hasattr(Record, "round_decode")
    for name, cls in records.items():
        assert not hasattr(cls, "decode"), name
        for method in ("round", "round_decode"):
            assert method in vars(cls), (name, method)
            params = inspect.signature(vars(cls)[method]).parameters
            assert list(params) == ["self", "s", "out"], (name, method)


def test_readme_library_example_prints_what_its_comment_says():
    readme = (Path(lofiq.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    said = float(re.search(r"# ~([0-9.]+) dB", blocks[0]).group(1))
    assert round(float(out.getvalue()), 2) == 31.54
    assert abs(float(out.getvalue()) - said) < 0.05
