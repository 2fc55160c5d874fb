import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import FIG1_TEXT

import popmatch
from popmatch import _gs
from popmatch.classify import exists_unstable_popular
from popmatch.election import label_edges, weighting
from popmatch.oracle import classify_exhaustive
from popmatch.reductions import (
    CnfFormula,
    GadgetMap,
    build_nondominant_gadget,
    build_stable_dominant_gadget,
    normalize_3sat,
)

SRC = str(Path(popmatch.__file__).resolve().parents[1])


def test_every_exported_name_resolves():
    """Each name in ``popmatch.__all__`` and in each module's ``__all__`` exists."""
    modules = [popmatch] + [
        importlib.import_module(f"popmatch.{info.name}")
        for info in pkgutil.iter_modules(popmatch.__path__)
    ]
    checked = 0
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names missing {name!r}"
            checked += 1
    assert checked


def _fresh_python(code: str, **env) -> str:
    """Run ``code`` in a new interpreter without ``site``; return its stdout."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": SRC, **env},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_no_dataclasses_or_toolchain():
    out = _fresh_python(
        "import sys, popmatch.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'subprocess'} & set(sys.modules)))"
    )
    assert out.strip() == "[]"


@pytest.mark.skipif(_gs.find_compiler() is None, reason="no C compiler (cc) on PATH")
def test_cold_build_imports_the_toolchain_itself(tmp_path, fig1):
    """A cold build in a process that has not imported ``subprocess`` yet
    (pytest's own process always has) compiles the kernel and decides."""
    out = _fresh_python(
        "import sys\n"
        "from popmatch.classify import exists_unstable_popular\n"
        "from popmatch.model import parse_instance\n"
        "assert 'subprocess' not in sys.modules\n"
        "stats = {}\n"
        f"m = exists_unstable_popular(parse_instance({FIG1_TEXT!r}), stats, backend='compiled')\n"
        "print(stats['backend'], m.edges)",
        XDG_CACHE_HOME=str(tmp_path),
    )
    want = exists_unstable_popular(fig1, backend="python")
    assert out.strip() == f"compiled {want.edges}"
    assert [p.suffix for p in (tmp_path / "popmatch").iterdir()] == [".so"]


def _records(fig1, m1):
    view = _gs.compile_view(fig1)
    contradiction = normalize_3sat(CnfFormula(1, [(1, 1), (-1, -1)]))
    return [
        (view, ("off", "adj", "crossrank", "n_prop", "n_resp")),
        (
            _gs.run_proposals(view),
            ("prop_partner", "resp_partner", "cur_rank", "accept_pos", "proposals"),
        ),
        (label_edges(fig1, m1), ("labels", "blocking")),
        (weighting(fig1, m1), ("edge", "loop")),
        (
            classify_exhaustive(fig1),
            ("matchings", "stable", "popular", "dominant",
             "min_popular_size", "max_popular_size", "blocking"),
        ),
        (
            build_nondominant_gadget(contradiction)[1],
            ("instance", "gadgets", "basic_edges", "consistency_edges", "specials"),
        ),
    ]


def test_records_keep_fields_construction_and_repr(fig1, m1):
    for record, fields in _records(fig1, m1):
        cls = type(record)
        assert cls._fields == fields
        values = [getattr(record, f) for f in fields]
        assert cls(*values) == record
        assert repr(record) == (
            f"{cls.__name__}(" + ", ".join(f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
        )
        with pytest.raises(AttributeError):
            setattr(record, fields[0], values[0])


def test_gadget_map_specials_are_never_shared():
    """``specials`` has no default, which would be one dict for every map."""
    assert GadgetMap._field_defaults == {}
    with pytest.raises(TypeError):
        GadgetMap(None, {}, (), ())
    nf = normalize_3sat(CnfFormula(1, [(1, 1), (-1, -1)]))
    a = build_nondominant_gadget(nf)[1].specials
    b = build_stable_dominant_gadget(nf)[1].specials
    assert a == b == {"s": "s", "t": "t"} and a is not b
