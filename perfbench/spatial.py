"""spatial: trail distillation and proximity coupling, no event store.

Set-up exports walk bundles of n, 2n and 4n points with
``export_observed``.  One round then, in a closed loop:

- distill: for each bundle, ``import_observed`` every manifest and
  ``distill_archetypal`` the walks;
- coupling: ``proximity_coupling`` over surfaces placed in tight groups far
  apart, then rounds that each move some surfaces with ``Topology.place``
  (one call per surface) and couple again.

Its requests, for the latency metrics, are the three distillations (from
manifests to an ``ArchetypalTrail``) and the coupling rounds (moves, then
``proximity_coupling``).
"""

from __future__ import annotations

import math
import shutil
import time
from pathlib import Path

import gen
from common import Round, call_stats, cpu_ns, gauge_s, own_peak_rss_mb, speed_scale, user_cpu_s
from gloss.interaction import CouplingState, Placement, Topology, proximity_coupling
from gloss.model import Distance
from gloss.trails import Manual, distill_archetypal, export_observed, import_observed
from spans import Tracer, median

SIZES = ("n", "2n", "4n")


def _metres(a, b) -> float:
    """Haversine on the mean Earth radius, independent of gloss.geo."""
    la1, lo1, la2, lo2 = map(math.radians, (a.latitude, a.longitude, b.latitude, b.longitude))
    h = math.sin((la2 - la1) / 2) ** 2 + math.cos(la1) * math.cos(la2) * math.sin((lo2 - lo1) / 2) ** 2
    return 2 * 6_371_000.0 * math.asin(min(1.0, math.sqrt(h)))


class Spatial:
    def __init__(self, seed: int, smoke: bool, workdir: Path):
        if smoke:
            sizes = dict(base_walks=3, spots=4, fixes=2, surfaces=60, moves=10, move_rounds=2)
        else:
            sizes = dict(base_walks=3, spots=10, fixes=4, surfaces=500, moves=500, move_rounds=2)
        self.inputs = gen.spatial_inputs(seed, **sizes)
        self.workdir = workdir
        self.manifests: list[list[Path]] = []
        self.export_s: list[float] = []
        self.expected_pairs = self._reference_pairs()

    def setup_once(self) -> float:
        """Export every bundle's manifests into a fresh directory; the
        rounds read the last export."""
        base = self.workdir / f"export-{len(self.export_s)}"
        before = gauge_s()
        start, cpu = time.perf_counter(), user_cpu_s()
        manifests = [
            [
                export_observed(walk, Manual(), base / size / f"walk-{w:03d}")
                for w, walk in enumerate(bundle.walks)
            ]
            for size, bundle in zip(SIZES, self.inputs.bundles)
        ]
        spent = (user_cpu_s() - cpu) * speed_scale(before, gauge_s())
        self.export_s.append(time.perf_counter() - start)
        if self.manifests:
            shutil.rmtree(self.manifests[0][0].parents[2])
        self.manifests = manifests
        return spent

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb()

    def round(self, tracer: Tracer) -> Round:
        clock = time.monotonic_ns
        failed = attempted = 0
        distill_items = {}  # per bundle: seconds of each import, then of distill
        # a gauge between every two timed stretches: before each bundle,
        # before the coupling and after it
        gauges = [gauge_s()]
        scales = {}
        for size, bundle, manifests in zip(SIZES, self.inputs.bundles, self.manifests):
            items = []
            walks = []
            with tracer.span("bench.spatial.distill"):
                for k, manifest in enumerate(manifests):
                    a, ca = clock(), cpu_ns()
                    walks.append(import_observed(manifest)[0])
                    b, cb = clock(), cpu_ns()
                    tracer.add("trails.import_observed", a, b, k)
                    items.append((cb - ca) / 1e9)
                a, ca = clock(), cpu_ns()
                result = distill_archetypal(walks, Distance(self.inputs.epsilon_m))
                b, cb = clock(), cpu_ns()
                tracer.add("trails.distill_archetypal", a, b, len(bundle.walks))
                items.append((cb - ca) / 1e9)
                attempted += 1
                failed += not self._distill_ok(bundle, walks, result)
            gauges.append(gauge_s())
            scales[size] = speed_scale(gauges[-2], gauges[-1])
            distill_items[size] = [x * scales[size] for x in items]
        clusters = len(result.nodes)

        coupling = self.inputs.coupling
        threshold = Distance(self.inputs.threshold_m)
        resources = [resource for resource, _ in coupling.placements]
        place_s = []
        coupling_items = []
        requests = [1e3 * sum(distill_items[size]) for size in SIZES]
        pairs = []
        with tracer.span("bench.spatial.coupling"):
            topology = Topology(tuple((r, Placement(w)) for r, w in coupling.placements))
            state = CouplingState()
            for step, moves in enumerate([()] + coupling.moves):
                first = len(coupling_items)
                for i, _, where in moves:
                    a, ca = clock(), cpu_ns()
                    topology = topology.place(resources[i], where)
                    b, cb = clock(), cpu_ns()
                    tracer.add("interaction.topology_place", a, b, i)
                    place_s.append((b - a) / 1e9)
                    coupling_items.append((cb - ca) / 1e9)
                a, ca = clock(), cpu_ns()
                state = proximity_coupling(state, topology, threshold)
                b, cb = clock(), cpu_ns()
                tracer.add("interaction.proximity_coupling", a, b, step)
                coupling_items.append((cb - ca) / 1e9)
                requests.append(1e3 * sum(coupling_items[first:]))
                pairs.append(state.proximity_surface_couplings)
        gauges.append(gauge_s())
        scales["coupling"] = speed_scale(gauges[-2], gauges[-1])
        coupling_items = [x * scales["coupling"] for x in coupling_items]
        requests[len(SIZES) :] = [x * scales["coupling"] for x in requests[len(SIZES) :]]

        failed += sum(1 for want, got in zip(self.expected_pairs, pairs) if want != got)
        attempted += len(self.expected_pairs) + len(place_s)
        failed += self._placements_wrong(topology)
        points = self.inputs.bundles[-1].points
        r = Round(
            traced=tracer.enabled,
            attempted=attempted,
            failed=failed,
            rate_count=points,
            rate_items=distill_items["4n"],
            latencies_ms=requests,
            batch_items=[x for size in SIZES for x in distill_items[size]] + coupling_items,
            batch_phases=("bench.spatial.distill", "bench.spatial.coupling"),
            named={"distill_s": (None, distill_items["4n"]), "coupling_s": (None, coupling_items)},
            scales=scales,
        )
        if tracer.enabled:
            r.layers = {
                "trails.import_observed.busy_s": call_stats(tracer.spans, "trails.import_observed")["trails.import_observed.busy_s"],
                "trails.export_observed.busy_s": median(self.export_s),
                "trails.distill_archetypal.s_n": distill_items["n"][-1],
                "trails.distill_archetypal.s_2n": distill_items["2n"][-1],
                "trails.distill_archetypal.s_4n": distill_items["4n"][-1],
                "trails.distill.growth": distill_items["4n"][-1] / distill_items["n"][-1],
                "trails.points": float(points),
                "trails.clusters": float(clusters),
                "interaction.proximity_coupling.pairs": float(sum(len(p) for p in pairs)),
                "interaction.topology_place.busy_s": sum(place_s),
            }
            r.layers.update(
                {
                    k: v
                    for k, v in call_stats(tracer.spans, "interaction.proximity_coupling").items()
                    if not k.endswith("p50_us")
                }
            )
        return r

    # -- reference checks --

    def _distill_ok(self, bundle, walks, result) -> bool:
        """Cluster count, recommended order and cluster places come from
        the spot layout the walks were generated from."""
        if walks != bundle.walks:
            return False
        if len(result.nodes) != len(bundle.spot_of_key):
            return False
        if result.recommended_order != bundle.expected_order:
            return False
        for node in result.nodes:
            spot = bundle.spot_of_key.get(node.key)
            centroid = node.where.payload.coordinate
            if spot is None or _metres(spot, centroid) > self.inputs.jitter_m:
                return False
        return True

    def _reference_pairs(self) -> list[frozenset]:
        """The coupled pairs after each coupling call: every two surfaces in
        the same group, sum over groups of C(g, 2) pairs in all."""
        coupling = self.inputs.coupling
        group_of = list(coupling.group_of)
        resources = [resource for resource, _ in coupling.placements]

        def pairs() -> frozenset:
            members: dict[int, list] = {}
            for resource, group in zip(resources, group_of):
                if group >= 0:
                    members.setdefault(group, []).append(resource)
            out = set()
            for group in members.values():
                for x in range(len(group)):
                    for y in range(x + 1, len(group)):
                        out.add(frozenset((group[x], group[y])))
            return frozenset(out)

        expected = [pairs()]
        for moves in coupling.moves:
            for i, group, _ in moves:
                if group_of[i] >= 0:
                    group_of[i] = group
            expected.append(pairs())
        return expected

    def _placements_wrong(self, topology: Topology) -> int:
        want = {resource: where for resource, where in self.inputs.coupling.placements}
        for moves in self.inputs.coupling.moves:
            for i, _, where in moves:
                want[self.inputs.coupling.placements[i][0]] = where
        got = {entity: placement.where for entity, placement in topology.placements}
        return sum(1 for resource, where in want.items() if got.get(resource) != where)
