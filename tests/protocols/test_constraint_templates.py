"""Isolation of the per-process constraint templates.

Every system of a family member copies its 8 constraint sets from one
shared template (``repro.protocols.family.system._TEMPLATES``).  A
``relax-constraint`` mutant edits its clone's copy; the edit must never
reach the template, another clone, or a system generated afterwards —
and thread workers attaching at the same time must build the template
once and each get their own sets.
"""

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.protocols.family.system as system_mod
from repro.core.database import ProtocolDatabase
from repro.core.expr import TRUE
from repro.faults import MutationEngine
from repro.protocols.family import SPECS, attach_variant, build_variant

from .test_family_parity import FIXTURES, table_digests

VARIANTS = tuple(SPECS)


def clone(system):
    return attach_variant(ProtocolDatabase.deserialize(system.db.snapshot()))


def golden(variant):
    with open(FIXTURES / f"golden_{variant}_tables.json",
              encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("variant", VARIANTS)
def test_relaxed_clone_leaves_other_systems_clean(variant):
    clean = build_variant(variant)
    (relax,) = MutationEngine(clean, seed=0,
                              classes=("relax-constraint",)).sample(1)
    target, column = relax.target, relax.relaxed_column
    want = clean.constraint_sets[target].get(column)
    assert want.expr != TRUE

    mutated = clone(clean)
    relax.apply_to(mutated)
    assert mutated.constraint_sets[target].get(column).expr == TRUE

    attached = clone(clean)
    fresh = build_variant(variant)
    try:
        template = system_mod._TEMPLATES[clean.spec][target]
        for cs in (template, *(s.constraint_sets[target]
                               for s in (clean, attached, fresh))):
            assert cs is not mutated.constraint_sets[target]
            assert cs.get(column) == want
        assert table_digests(attached) == golden(variant)
        assert table_digests(fresh) == golden(variant)
    finally:
        for system in (clean, mutated, attached, fresh):
            system.db.close()


def test_concurrent_attaches_share_one_template(monkeypatch):
    source = build_variant("moesi")
    snapshot = source.db.snapshot()
    source.db.close()
    # An empty template store makes the threads race to populate it.
    monkeypatch.setattr(system_mod, "_TEMPLATES", {})
    builds = []
    real_builders = system_mod.controller_builders

    def counting_builders(spec):
        builds.append(spec.key)
        return real_builders(spec)

    monkeypatch.setattr(system_mod, "controller_builders", counting_builders)
    n_threads = 8
    barrier = threading.Barrier(n_threads, timeout=30)

    def attach(_):
        db = ProtocolDatabase.deserialize(snapshot)
        try:
            barrier.wait()
            return attach_variant(db).constraint_sets
        finally:
            db.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            futures = [pool.submit(attach, i) for i in range(n_threads)]
            attached = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert builds == ["moesi"]
    (template,) = system_mod._TEMPLATES.values()
    for name, cs in template.items():
        copies = [sets[name] for sets in attached]
        assert len({id(c) for c in (cs, *copies)}) == n_threads + 1
        assert len({id(c._by_column) for c in (cs, *copies)}) \
            == n_threads + 1
        assert all(c._by_column == cs._by_column for c in copies)
