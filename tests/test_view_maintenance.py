"""Incremental view maintenance: footprints × dependency sets × the cache.

The write-path cache cliff this PR removes: every mutation used to orphan
every warm result-cache entry wholesale.  Now an update script's exact
footprint is intersected with each cached entry's dependency set —
provably disjoint entries are re-keyed to the new generation, membership
changes to patchable scans are spliced in place, and only genuinely
affected entries are invalidated.  The invariant under test everywhere:
a maintained entry must be byte-identical to what cold re-execution
would produce; when in doubt the service must invalidate, never guess.
"""

from collections.abc import Sized

import pytest

from repro.querycalc.ast import (
    Collect,
    FilterProperty,
    FilterType,
    Follow,
    Query,
    Start,
)
from repro.querycalc.native import run_query
from repro.querycalc.service import QueryService, ResultCache
from repro.querycalc.service.deps import derive_dependencies
from repro.serving.frontend import MAX_LATENCY_SAMPLES
from repro.testing.models import random_model
from repro.workloads import make_it_model
from repro.xquery.updates import apply_script
from repro.xquery.updates.footprint import Footprint


def scan(type_name="User", sort_by=None, descending=False):
    return Query(
        start=Start(type=type_name),
        steps=[],
        collect=Collect(sort_by=sort_by, descending=descending),
    )


def follow(relation="likes", start_type="Person"):
    return Query(
        start=Start(type=start_type),
        steps=[Follow(relation=relation, include_subrelations=True)],
        collect=Collect(),
    )


def native_ids(query, model):
    return [node.id for node in run_query(query, model)]


@pytest.fixture()
def model():
    return make_it_model(scale=6)


@pytest.fixture(params=["xquery"])
def service(model):
    # the service fronts the XQuery path only; the param keeps the
    # propagation tests' ids stable.
    with QueryService(model) as svc:
        yield svc


class TestDependencySets:
    def test_scan_members_are_subtype_expanded(self, model):
        deps = derive_dependencies(scan("User"), model.metamodel)
        assert deps.member_types == frozenset({"User", "Superuser"})
        assert deps.patchable
        assert deps.sort_property == "label"

    def test_follow_query_tracks_no_direct_membership(self, model):
        deps = derive_dependencies(follow(), model.metamodel)
        # a fresh node has no relations; membership can only reach a
        # follow query through the relation rule.
        assert deps.member_types == frozenset()
        assert {"likes", "favors"} <= deps.relation_names
        assert not deps.patchable

    def test_property_filter_blocks_patching(self, model):
        query = Query(
            start=Start(type="User"),
            steps=[FilterProperty(name="rank", op="ge", value="1")],
            collect=Collect(),
        )
        deps = derive_dependencies(query, model.metamodel)
        assert "rank" in deps.properties
        assert not deps.patchable

    def test_traced_query_is_not_patchable(self, model):
        query = Query(
            start=Start(type="User"), steps=[], collect=Collect(), trace="t1"
        )
        assert not derive_dependencies(query, model.metamodel).patchable

    def test_unrelated_footprint_has_no_reasons(self, model):
        deps = derive_dependencies(scan("User"), model.metamodel)
        footprint = Footprint()
        footprint.inserted_nodes["X"] = "Server"
        footprint.node_prop_writes.add(("Server", "cpuCount"))
        assert deps.affected_by(footprint) == set()

    def test_membership_and_property_reasons(self, model):
        deps = derive_dependencies(scan("User"), model.metamodel)
        footprint = Footprint()
        footprint.inserted_nodes["X"] = "Superuser"
        assert deps.affected_by(footprint) == {"membership"}
        footprint = Footprint()
        footprint.node_prop_writes.add(("User", "label"))
        assert deps.affected_by(footprint) == {"property"}

    def test_rename_reason_uses_path_types(self, model):
        deps = derive_dependencies(scan("Server"), model.metamodel)
        footprint = Footprint()
        footprint.linked_types.update(("User", "Superuser"))
        assert deps.affected_by(footprint) == set()
        footprint.linked_types.add("Server")
        assert "rename" in deps.affected_by(footprint)


class TestSharedEntries:
    """Plans that share one result-cache entry (one optimized signature)
    share its dependency set.  No two calculus spellings with one signature
    derive different sets today, so the union is pinned at the cache."""

    @pytest.mark.parametrize("shared_by", [None, "hit", "store"])
    def test_write_to_second_plans_dependencies_invalidates(self, model, shared_by):
        first = derive_dependencies(scan("User"), model.metamodel)
        second = derive_dependencies(follow(), model.metamodel)
        footprint = Footprint()
        footprint.relation_names.add("likes")
        assert not first.affected_by(footprint) and second.affected_by(footprint)
        cache = ResultCache()
        if shared_by == "store":  # the second plan stored first
            cache.put(("sig", 1), ["N1"], deps=second)
        cache.put(("sig", 1), ["N1"], deps=first)
        if shared_by == "hit":
            assert cache.get(("sig", 1), second) == (["N1"], ())

        def decide(deps, ids):
            return ("drop", None) if deps.affected_by(footprint) else ("keep", None)

        outcome = cache.propagate(1, 2, decide)
        # unshared, the first plan's entry provably survives the write
        assert outcome["invalidated" if shared_by else "kept"] == 1

    def test_hit_by_a_covered_plan_keeps_the_entrys_set(self, model):
        deps = derive_dependencies(scan("User"), model.metamodel)
        twin = derive_dependencies(scan("User"), model.metamodel)
        assert twin is not deps and deps.covers(twin)
        cache = ResultCache()
        cache.put(("sig", 1), ["N1"], deps=deps)
        cache.get(("sig", 1), twin)
        cache.put(("sig", 1), ["N1"], deps=twin)
        assert cache._entries[("sig", 1)][2] is deps
        merged = deps.merge(derive_dependencies(follow(), model.metamodel))
        assert merged is not deps and not merged.patchable
        assert merged.merge(deps) is merged


class TestPropagation:
    def warm(self, service, queries):
        for query in queries:
            service.run(query)

    def assert_parity(self, service, queries):
        for query in queries:
            item = service.run(query)
            assert [node.id for node in item] == native_ids(query, service.model)

    def test_disjoint_write_keeps_entries_warm(self, service):
        queries = [scan("User"), scan("Server")]
        self.warm(service, queries)
        summary = service.apply_update('insert node Document with (label "d")')
        assert summary["propagation"]["kept"] == 2
        for query in queries:
            assert service.run(query).served_from_cache
        self.assert_parity(service, queries)

    def test_insert_patches_sorted_scan(self, service):
        query = scan("User")
        self.warm(service, [query])
        summary = service.apply_update('insert node User with (label "AAA-first")')
        assert summary["propagation"]["patched"] == 1
        item = service.run(query)
        assert item.served_from_cache
        ids = [node.id for node in item]
        assert ids == native_ids(query, service.model)
        # the fresh row landed at its sorted position, not appended.
        assert service.model.nodes[ids[0]].get("label") == "AAA-first"

    def test_insert_patches_descending_scan(self, service):
        query = scan("User", descending=True)
        self.warm(service, [query])
        service.apply_update('insert node User with (label "zzz-last")')
        item = service.run(query)
        assert item.served_from_cache
        ids = [node.id for node in item]
        assert ids == native_ids(query, service.model)
        assert service.model.nodes[ids[0]].get("label") == "zzz-last"

    def test_delete_patches_scan_and_invalidates_follows(self, service):
        queries = [scan("User"), follow()]
        self.warm(service, queries)
        victim = service.model.nodes_of_type("User")[0]
        summary = service.apply_update(f"delete node {victim.id}")
        propagation = summary["propagation"]
        assert propagation["patched"] == 1  # the scan
        assert propagation["invalidated"] == 1  # the follow (cascades)
        self.assert_parity(service, queries)

    def test_property_write_invalidates_only_readers(self, service):
        reader = scan("User")  # sorts by label
        bystander = scan("Server")
        self.warm(service, [reader, bystander])
        user = service.model.nodes_of_type("User")[0]
        summary = service.apply_update(
            f'replace value of {user.id}.label with "renamed"'
        )
        assert summary["propagation"]["invalidated"] == 1
        assert summary["propagation"]["kept"] == 1
        assert service.run(bystander).served_from_cache
        assert not service.run(reader).served_from_cache
        self.assert_parity(service, [reader, bystander])

    def test_rename_invalidates_scans_of_both_types(self, service):
        queries = [scan("User"), scan("Server"), scan("Document")]
        self.warm(service, queries)
        user = service.model.nodes_of_type("User")[0]
        summary = service.apply_update(f"rename node {user.id} as Server")
        assert summary["propagation"]["invalidated"] == 2
        assert summary["propagation"]["kept"] == 1
        self.assert_parity(service, queries)

    def test_traced_query_is_invalidated_not_patched(self, service):
        query = Query(
            start=Start(type="User"), steps=[], collect=Collect(), trace="probe"
        )
        cold = service.run(query)
        service.apply_update('insert node User with (label "aaa")')
        warm = service.run(query)
        assert not warm.served_from_cache
        assert [n.id for n in warm] == native_ids(query, service.model)
        # the re-evaluation saw the post-update reality, not the cached one.
        assert len(list(warm)) == len(list(cold)) + 1

    def test_no_op_script_leaves_cache_untouched(self, service):
        query = scan("User")
        self.warm(service, [query])
        user = service.model.nodes_of_type("User")[0]
        label = user.get("label")
        summary = service.apply_update(
            f'replace value of {user.id}.label with "{label}"'
        )
        assert summary["applied"] == 0
        assert summary["propagation"] == {
            "kept": 0, "patched": 0, "invalidated": 0, "skipped": 0,
        }
        assert service.run(query).served_from_cache

    def test_foreign_mutation_skips_propagation(self, service):
        """Raw model writes that bypass apply_update orphan the warm
        entries exactly like before — carrying them over would be unsound
        because no footprint was recorded for the foreign write."""
        query = scan("User")
        self.warm(service, [query])
        service.model.nodes_of_type("User")[0].set("rank", 99)  # foreign
        summary = service.apply_update('insert node Document with (label "d")')
        # the export lags the model: detected, every entry skipped.
        assert summary["propagation"]["skipped"] >= 1
        assert summary["propagation"]["kept"] == 0
        assert not service.run(query).served_from_cache
        self.assert_parity(service, [query])

    def test_update_metrics_accumulate(self, service):
        self.warm(service, [scan("User")])
        service.apply_update('insert node User with (label "m1")')
        service.apply_update('insert node Server with (label "m2")')
        metrics = service.metrics()
        assert metrics["updates"] == 2
        propagations = metrics["propagations"]
        assert propagations["patched"] >= 1
        assert propagations["kept"] >= 1

    def test_check_error_leaves_service_untouched(self, service):
        from repro.xquery.updates import UpdateCheckError

        query = scan("User")
        self.warm(service, [query])
        with pytest.raises(UpdateCheckError):
            service.apply_update('insert node Person with (birthYear "soon")')
        assert service.run(query).served_from_cache

    def test_long_mixed_sequence_stays_faithful(self, service):
        queries = [
            scan("User"),
            scan("Person", sort_by="birthYear", descending=True),
            follow(),
            scan("Program"),
        ]
        model = service.model
        scripts = [
            'insert node User id VU1 with (label "aa", birthYear 1984)',
            "insert relation likes from VU1 to N2",
            'replace value of VU1.label with "ab"',
            "rename node VU1 as Superuser",
            "delete node VU1",
            'insert node Program with (label "fresh-prog")',
        ]
        for script in scripts:
            self.warm(service, queries)
            service.apply_update(script)
            for query in queries:
                item = service.run(query)
                assert [n.id for n in item] == native_ids(query, model), script


class TestBoundedState:
    """The front end keeps per-plan state only in its bounded caches, and
    maintenance still works for entries whose plans the plan cache evicted."""

    PLANS, RESULTS = 4, 8

    def assert_bounded(self, service):
        assert service._plans.stats()["currsize"] <= self.PLANS
        assert service._results.stats()["currsize"] <= self.RESULTS
        compile_cache = service.engine.cache_info()
        assert compile_cache["currsize"] <= compile_cache["maxsize"]
        bounds = {"_latencies": MAX_LATENCY_SAMPLES}
        owners = [service, service._backend] + ([service._pool] if service._pool else [])
        for owner in owners:
            for name, value in vars(owner).items():
                if isinstance(value, Sized) and not isinstance(value, str):
                    assert len(value) <= bounds.get(name, self.RESULTS), name

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_forty_plans_stay_within_the_cache_bounds(self, mode):
        model = random_model(7, size=30)

        def program(rank):
            return Query(
                start=Start(type="Program"),
                steps=[FilterProperty(name="rank", op="ge", value=str(rank))],
                collect=Collect(),
            )

        patched, kept = scan("User"), scan("Server")
        invalidated = Query(
            start=Start(type="User"),
            steps=[FilterProperty(name="rank", op="ge", value="0")],
            collect=Collect(),
        )
        probes = [patched, kept, invalidated, follow(start_type="Person")]
        # the probes' plans are evicted by the last four, their results are not
        queries = [program(rank) for rank in range(32)] + probes
        queries += [program(rank) for rank in range(32, 36)]
        with QueryService(
            model,
            mode=mode,
            workers=2,
            plan_cache_size=self.PLANS,
            result_cache_size=self.RESULTS,
        ) as service:
            keys = []
            for query in queries:
                service.run(query)
                keys.append(service._plan(query).cache_key)
                self.assert_bounded(service)
            summary = service.apply_update('insert node User with (label "aaa", rank 5)')
            assert summary["propagation"] == {
                "kept": 6, "patched": 1, "invalidated": 1, "skipped": 0,
            }
            live = list(zip(queries, keys))[-self.RESULTS:]
            for query, key in live:
                cached = service._results.get((key, summary["generation"]))
                if query is invalidated:
                    assert cached is None
                else:
                    assert cached[0] == native_ids(query, model)
            for query, _ in live:
                assert [n.id for n in service.run(query)] == native_ids(query, model)
            self.assert_bounded(service)


class TestStoreRaceRegression:
    """A mutation that lands while a read executes must not let that
    evaluation be returned or cached under the old generation key —
    propagate() would then carry or patch a torn result forward.  The read
    runs again on the new generation instead."""

    def test_store_refuses_results_from_an_older_generation(self, model):
        query = scan("User")
        with QueryService(model) as service:
            execute = service._execute
            calls = []

            def racing(*args):
                result = execute(*args)
                calls.append(result)
                if len(calls) == 1:
                    model.create_node("User", label="concurrent")  # the race
                return result

            service._execute = racing
            served = service.run(query)
            assert [node.id for node in served] == native_ids(query, model)
            assert len(calls) == 2
            assert service.metrics()["executed"] == 2
            assert service._results.stats()["currsize"] == 1

    def test_reads_touch_the_export_only_under_the_export_lock(self, model):
        """A mutation lands between a read's snapshot and its execution.  A
        read that then refreshed the export (say, for its statistics
        catalog) outside the backend's lock could patch it concurrently
        with an update holding that lock; the in-process worker reads the
        export and catalog under it too."""
        query = scan("User")
        with QueryService(model) as service:
            exporter = service._backend._exporter
            export = exporter.export
            unlocked = []

            def checked_export():
                if not service._backend.lock.locked():
                    unlocked.append(True)
                return export()

            exporter.export = checked_export
            snapshot = service._snapshot
            raced = []

            def racing_snapshot(*args):
                taken = snapshot(*args)
                if not raced:
                    raced.append(model.create_node("User", label="concurrent"))
                return taken

            service._snapshot = racing_snapshot
            served = service.run(query)
            assert unlocked == []
            assert [node.id for node in served] == native_ids(query, model)

    def test_store_accepts_results_from_the_live_generation(self, model):
        with QueryService(model) as service:
            query = scan("User")
            service.run(query)
            assert service.run(query).served_from_cache


class TestStatisticsMaintenance:
    """Satellite regression: the statistics catalog follows the export
    delta instead of being recollected from a full walk — and its value
    domains (``attribute_domain("node", "type")``) must always reflect the
    post-mutation document."""

    def test_delta_log_cursor_semantics(self, model):
        from repro.awb import IncrementalExporter

        exporter = IncrementalExporter(model)
        exporter.export()
        cursor = exporter.delta_cursor()
        assert exporter.delta_since(cursor) == []
        model.create_node("User", label="fresh")
        exporter.export()
        delta = exporter.delta_since(cursor)
        assert delta is not None and len(delta) == 1
        old, new = delta[0]
        assert old is None and new.get_attribute("type") == "User"
        # a full rebuild starts a new epoch: old cursors answer None.
        exporter.invalidate()
        exporter.export()
        assert exporter.delta_since(cursor) is None
        assert exporter.delta_since(exporter.delta_cursor()) == []

    def test_catalog_delta_parity_with_full_recollection(self, model):
        from repro.querycalc.via_xquery import XQueryCalculusBackend
        from repro.xquery.algebra.stats import StatisticsCatalog

        backend = XQueryCalculusBackend(model)
        backend.statistics  # baseline collection
        apply_script(
            'insert node User id SU1 with (label "s", birthYear 1970);'
            " insert relation likes from SU1 to N2;"
            ' replace value of N3.label with "patched";'
            " rename node SU1 as Superuser;"
            f" delete node {model.nodes_of_type('Program')[0].id}",
            model,
        )
        maintained = backend.statistics
        fresh = StatisticsCatalog.from_root(
            backend.export.document_element(), backend.export_generation
        )
        assert backend.stats_rebuilds == 1
        assert backend.stats_deltas == 1
        assert maintained.total_elements == fresh.total_elements
        assert maintained.element_counts == fresh.element_counts
        assert maintained.child_fanout == fresh.child_fanout
        assert maintained.attr_distinct == fresh.attr_distinct
        assert maintained.attr_present == fresh.attr_present
        assert maintained.attr_domains == fresh.attr_domains
        assert (maintained.schema is None) == (fresh.schema is None)

    def test_routing_proof_sees_post_mutation_domain(self, model):
        """The staleness pin: a type that first appears via an update must
        be in the maintained ``attribute_domain("node", "type")`` without
        any full recollection."""
        with QueryService(model) as service:
            service.run(scan("User"))  # forces export + baseline stats
            backend = service._backend
            assert backend.stats_rebuilds == 1
            assert "Location" not in (
                backend.statistics.attribute_domain("node", "type") or set()
            )
            service.apply_update('insert node Location with (label "lab")')
            domain = backend.statistics.attribute_domain("node", "type")
            assert domain is not None and "Location" in domain
            assert backend.stats_rebuilds == 1  # maintained, not recollected
            assert backend.stats_deltas >= 1

    def test_domain_shrinks_when_last_of_a_type_dies(self, model):
        from repro.querycalc.via_xquery import XQueryCalculusBackend

        backend = XQueryCalculusBackend(model)
        backend.statistics
        apply_script('insert node Location id L1 with (label "x")', model)
        assert "Location" in backend.statistics.attribute_domain("node", "type")
        apply_script("delete node L1", model)
        assert "Location" not in backend.statistics.attribute_domain("node", "type")
        assert backend.stats_rebuilds == 1


class TestProcessModeDeltas:
    def test_update_broadcasts_delta_to_worker_replicas(self, model):
        query = scan("User")
        with QueryService(model, mode="process", workers=2) as service:
            cold = [n.id for n in service.run(query)]
            assert cold == native_ids(query, model)
            summary = service.apply_update(
                'insert node User with (label "aaa-shard", birthYear 1999)'
            )
            assert summary["applied"] == 1
            after = [n.id for n in service.run(query)]
            assert after == native_ids(query, model)
            metrics = service.metrics()
            assert metrics["serving"]["deltas"] == 1
            assert metrics["serving"]["refreshes"] <= 1
            # every worker replayed the script in place (no full refresh).
            for worker in service.serving_stats()["workers"]:
                assert worker["deltas"] == 1

    def test_a_failed_replay_still_reaches_every_worker(self, model, monkeypatch):
        """One worker failing its replay leaves every other worker asked;
        the next query refreshes every replica and answers as native."""
        from repro.serving.worker import ShardWorker

        replay = ShardWorker.delta

        def delta_failing_on_shard_0(worker, payload):
            if worker.shard == 0:
                raise RuntimeError("shard 0 cannot replay")
            return replay(worker, payload)

        # patched before the workers fork, so every worker inherits it
        monkeypatch.setattr(ShardWorker, "delta", delta_failing_on_shard_0)
        query = scan("User")
        with QueryService(model, mode="process", workers=3) as service:
            service.run(query)
            service.apply_update('insert node User with (label "aaa-shard", birthYear 1999)')
            serving = service.serving_stats()
            assert [worker["deltas"] for worker in serving["workers"]] == [0, 1, 1]
            assert serving["generation"] == -1 and serving["deltas"] == 0
            refreshes = serving["refreshes"]
            assert [n.id for n in service.run(query)] == native_ids(query, model)
            serving = service.serving_stats()
            assert serving["refreshes"] == refreshes + 1
            assert serving["generation"] == model.generation
            for worker in serving["workers"]:
                assert worker["generation"] == model.generation

    def test_foreign_mutation_falls_back_to_full_refresh(self, model):
        query = scan("User")
        with QueryService(model, mode="process", workers=2) as service:
            service.run(query)
            model.create_node("User", label="foreign")  # bypasses apply_update
            summary = service.apply_update('insert node Server with (label "s")')
            assert summary["propagation"]["skipped"] >= 0
            after = [n.id for n in service.run(query)]
            assert after == native_ids(query, model)


class TestUpdateOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_update_scripts_keep_maintained_cache_faithful(self, seed):
        from repro.testing.models import random_model
        from repro.testing.oracle import UpdateOracle

        model = random_model(seed, size=16)
        with UpdateOracle(model, seed=seed * 13 + 1) as oracle:
            for _ in range(6):
                divergence = oracle.step()
                assert divergence is None, divergence.describe()
        metrics = oracle.service.metrics()
        assert metrics["updates"] == 6
        assert metrics["propagations"]["skipped"] == 0
