"""The package's value records: plain classes over record.Record, with the
construction, equality, hashing, repr, pickling and immutability that
their former dataclass definitions gave, and an import that generates no
code."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import jordanian
from jordanian.coupling import AlphaTable, CoupledBasis, alpha_table
from jordanian.halfint import half
from jordanian.irreps import GenMatrices, Irrep, irrep
from jordanian.report import Check, Report
from jordanian.tensorops import FockBlock, OpSpaceContext, TensorOpFamily
from jordanian.wigner import ReducedMatrixElement

SRC = str(Path(jordanian.__file__).resolve().parent.parent)

# (class, positional fields, the repr a frozen dataclass of these fields
# gives): one example per frozen record class.
FROZEN = [
    (Check, ("a", "pass"), "Check(name='a', status='pass', detail='')"),
    (GenMatrices, (1, 2, 3, 4, 5),
     "GenMatrices(x=1, y=2, h=3, ep=4, em=5, weights=None)"),
    (Irrep, tuple(range(11)),
     "Irrep(j=0, weights=1, zp=2, zm=3, hm=4, x=5, y=6, exp_hx=7, exp_mhx=8, "
     "exp_half_hx=9, exp_mhalf_hx=10)"),
    (AlphaTable, (half(1), 2, 3, 4, 5),
     "AlphaTable(j1=HalfInt(1), j2=2, ket=3, bra=4, cgc=5)"),
    (CoupledBasis, (1, 2, 3), "CoupledBasis(j1=1, j2=2, matrix=3)"),
    (OpSpaceContext, (1, 2), "OpSpaceContext(source=1, target=2)"),
    (TensorOpFamily, (1, (2,), 3),
     "TensorOpFamily(rank=1, components=(2,), ctx=3)"),
    (FockBlock, ("f", ("a",), 3, (("s", (0,)),)),
     "FockBlock(kind='f', labels=('a',), gens=3, sectors=(('s', (0,)),))"),
    (ReducedMatrixElement, (half(1), 2, 3, "v"),
     "ReducedMatrixElement(rank=HalfInt(1), source_j=2, target_j=3, value='v')"),
]
IDS = [cls.__name__ for cls, _, _ in FROZEN]


def test_importing_the_package_loads_no_code_generation():
    # A dataclass would load dataclasses, and with it inspect, ast, dis and
    # tokenize, in every process that imports the package.
    script = ("import sys, jordanian.cli; print(' '.join(m for m in "
              "('dataclasses', 'inspect', 'ast', 'dis', 'tokenize') "
              "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("cls,args,text", FROZEN, ids=IDS)
def test_frozen_records_compare_hash_and_show_their_fields(cls, args, text):
    record = cls(*args)
    assert repr(record) == text
    twin = cls(*copy.copy(args))
    assert record == twin and hash(record) == hash(twin)
    assert record != cls(*args[:-1], "other") and record != args
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(copied) is cls and copied == record and copied is not record


@pytest.mark.parametrize("cls,args,text", FROZEN, ids=IDS)
def test_frozen_records_refuse_setting_and_deleting(cls, args, text):
    record = cls(*args)
    names = [name for name, _ in record._items()]
    for name in names + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, name) for name in names][:len(args)] == list(args)


def test_records_take_keywords_and_their_defaults():
    assert GenMatrices(x=1, y=2, h=3, ep=4, em=5).weights is None
    assert GenMatrices(1, 2, 3, 4, 5, weights=(6,)).weights == (6,)
    assert Check("n", "pass") == Check(name="n", status="pass", detail="")
    assert OpSpaceContext(target=2, source=1) == OpSpaceContext(1, 2)
    for bad in (lambda: GenMatrices(1, 2), lambda: Check("a", "b", "c", "d"),
                lambda: OpSpaceContext(1, 2, ctx=3),
                lambda: OpSpaceContext(1, source=2)):
        with pytest.raises(TypeError):
            bad()


def test_check_records_hold_no_instance_dict():
    assert not hasattr(Check("a", "pass"), "__dict__")


def test_reports_are_mutable_unhashable_and_own_their_lists():
    first, second = Report("a"), Report("a")
    assert repr(first) == "Report(suite='a', items=[], notes=[], elapsed=0.0)"
    assert first == second
    assert first.items is not second.items and first.notes is not second.notes
    first.add(Check("c", "pass"))
    first.note("n")
    first.elapsed = 1.5
    assert second.items == [] and second.notes == [] and first != second
    with pytest.raises(TypeError):
        hash(first)
    for copied in (pickle.loads(pickle.dumps(first)), copy.deepcopy(first)):
        assert copied == first and copied.items is not first.items
    assert Report("b", first.items).items == first.items


def test_memoized_records_keep_their_products_immutable():
    table = alpha_table(1, half(1, 2))
    coupled = table.coupled
    assert table.coupled is coupled
    for name in ("coupled", "coupled_bras", "dual", "ket"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(table, name, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(table, name)
    assert table.coupled is coupled
    assert pickle.loads(pickle.dumps(table)) == table
    gens = irrep(1).gens()
    assert gens == irrep(1).gens() and hash(gens) == hash(irrep(1).gens())
    assert irrep(1) == copy.deepcopy(irrep(1))
