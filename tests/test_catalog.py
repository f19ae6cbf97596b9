import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tfc_solve
from tfc_solve.catalog import CATALOG, CatalogProblem, get


def test_known_ids_present():
    assert {"eq19", "eq26", "sec42", "eq27", "eq28"} <= set(CATALOG)


def test_get_unknown_id():
    with pytest.raises(KeyError):
        get("nope")


def test_analytic_self_checks_pass():
    for p in CATALOG.values():
        p.self_check()


def test_analytic_boundary_values_match_constraints():
    for p in CATALOG.values():
        if p.analytic is None:
            continue
        for order, at, value in p.constraint_triples():
            out = p.analytic(at)[order]
            assert float(out) == pytest.approx(value, abs=1e-12), p.id


def test_constraint_triples_resolve_locations():
    triples = CATALOG["eq26"].constraint_triples()
    assert triples == [(0, 0.0, 1.0), (0, 1.0, 3.0)]
    triples = CATALOG["eq19"].constraint_triples()
    assert triples == [(0, 1.0, 1.0), (1, 1.0, 0.0)]


def test_problem_file_round_trip_schema():
    doc = CATALOG["eq19"].to_problem_file()
    assert doc["schema_version"] == 1
    assert doc["kind"] == "ivp"
    assert doc["interval"] == [1.0, 4.0]
    assert doc["constraints"][0] == {"order": 0, "at": "t1", "value": 1.0}
    assert CATALOG["eq26"].to_problem_file()["kind"] == "bvp"


def test_ode_coefficients_evaluate():
    ode = CATALOG["sec42"].ode()
    t = np.linspace(0.0, 1.0, 11)
    assert np.allclose(ode.f2(t), 1.0 + 2.0 * t)
    assert ode.f(np.pi / 3.0) == pytest.approx(0.0, abs=1e-14)


def test_self_check_catches_wrong_analytic():
    base = CATALOG["eq26"]
    bad = CatalogProblem(
        id="bad",
        coefficients=base.coefficients,
        interval=base.interval,
        constraints=base.constraints,
        expected_class=base.expected_class,
        analytic=lambda t: (np.asarray(t) * 0 + 1.0,
                            np.asarray(t) * 0,
                            np.asarray(t) * 0 + 1.0),
    )
    with pytest.raises(AssertionError):
        bad.self_check()


@pytest.mark.parametrize("pid", sorted(CATALOG))
def test_entry_and_cli_load_build_the_same_problem(pid):
    # an entry's ode() and constraint_triples() and the CLI's catalog:<id>
    # give the same coefficient bits at every node kind's nodes, the same
    # interval and the same triples, types included
    from tfc_solve import cli
    from tfc_solve.mapping import DomainMap

    entry, loaded = CATALOG[pid], cli.load_problem(f"catalog:{pid}")
    ode = entry.ode()
    assert (ode.t1, ode.t2) == (loaded.ode.t1, loaded.ode.t2) == loaded.interval
    dmap = DomainMap(ode.t1, ode.t2)
    for kind in ("uniform", "lobatto"):
        t = dmap.to_t(dmap.nodes(1001, kind))
        for name in ("f2", "f1", "f0", "f"):
            a, b = (np.broadcast_to(getattr(o, name)(t), t.shape) for o in (ode, loaded.ode))
            assert a.tobytes() == b.tobytes(), (kind, name)
    triples = entry.constraint_triples()
    assert triples == loaded.constraints
    assert [tuple(map(type, c)) for c in triples] == [tuple(map(type, c)) for c in loaded.constraints]


def test_catalog_does_not_import_the_cli():
    # the CLI module costs its own import; the catalog reads its problem
    # files through problem.scalar_problem
    src = str(Path(tfc_solve.__file__).parents[1])
    code = "import sys, tfc_solve.catalog; sys.exit('tfc_solve.cli' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
