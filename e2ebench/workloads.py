"""The four workloads: inputs, the op each one times, and its oracle.

Every input is a pure function of the workload seed, built in
``setup`` and never touched by the timed loop.  The seed does not pick
a new random database: it picks a presentation (see :class:`Presentation`)
of one fixed recipe instance: the ROADMAP's ``D400T15N15L20I5 --seed 1``
database and its update stream, or the ``bench_biggraph`` planted graph.
Every seed asks the same mining question, so the work per op is the
same, while the order of what the program reads differs from seed to
seed.  Fresh generator seeds would not do: seeds 1-8 of the
recipe give 151 to 335 patterns and ops from 0.64 to 1.75 s, a spread no
bound can absorb.

A workload object is driven by ``run.py``:

* ``setup()`` builds the inputs (timed as ``setup_s``);
* ``prepare(i)`` runs untimed before op ``i`` (stream restores);
* ``op(i)`` is the timed op;
* ``after(i, out)`` checks the op's output untimed and says if it failed;
* ``check()`` computes the oracle agreement after the timed phase.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import random
import time
from dataclasses import dataclass
from pathlib import Path

from repro.biggraph import BigGraphMiner
from repro.core.incremental import IncrementalPartMiner
from repro.core.partminer import PartMiner
from repro.datagen.large_graph import LargeGraphSpec, generate_large_graph
from repro.datagen.synthetic import generate_dataset
from repro.graph import io as graph_io
from repro.graph.canonical import canonical_code, min_dfs_code
from repro.graph.database import GraphDatabase
from repro.graph.labeled_graph import LabeledGraph
from repro.mining.base import PatternSet
from repro.mining.gaston import GastonMiner
from repro.mining.gspan import GSpanMiner
from repro.mining.store import dump_patterns
from repro import query
from repro.serve.catalog import PatternCatalog
from repro.serve.service import PatternService, encode_graph
from repro.updates.generator import UpdateGenerator
from repro.updates.model import apply_updates
from repro.updates.tracker import hot_vertex_assignment


@dataclass(frozen=True)
class Recipe:
    """Sizes of one benchmark scale (``FULL`` is measured, ``TINY`` smoke-tested)."""

    spec: str
    min_support: float
    max_size: int
    stream_batches: int
    big_vertices: int
    big_copies: int


#: The ROADMAP D400 recipe: ``repro generate D400T15N15L20I5 --seed 1``,
#: minsup 0.08, k=2, max_size 7; updates from ``UpdateGenerator(20, 5,
#: seed=3)`` over ``hot_vertex_assignment(hot_fraction=0.25, seed=1)``.
#: 1200 planted-graph vertices make one sharded big-graph op about 1 s.
FULL = Recipe("D400T15N15L20I5", 0.08, 7, 4, 1200, 12)
TINY = Recipe("D40T8N8L8I3", 0.15, 4, 2, 150, 4)

RECIPE_SEED = 1
QUERY_GRAPHS_SEED = 2  # contains-query graphs: same spec, derived seed
UPDATE_SEED = 3
HOT_SEED = 1
HOT_FRACTION = 0.25
UPDATE_FRACTION = 0.2
K = 2


def sha256(*chunks: str) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk.encode())
        digest.update(b"\0")
    return digest.hexdigest()


def dump_text(patterns: PatternSet, meta: dict | None = None) -> str:
    out = io.StringIO()
    dump_patterns(patterns, out, meta=meta)
    return out.getvalue()


def jaccard_counts(result: PatternSet, oracle: PatternSet) -> tuple[int, int]:
    """``(|A & B|, |A | B|)`` over ``(canonical key, support)`` pairs."""
    mine = {(p.key, p.support) for p in result}
    want = {(p.key, p.support) for p in oracle}
    return len(mine & want), len(mine | want)


class Presentation:
    """A seeded reordering of databases, update streams and graphs.

    A database's graphs are shuffled into a new gid order (and update
    streams follow them); a single graph has its vertices renumbered.
    Labels, and the vertex ids and edge order within a database graph,
    stay: permuting labels changes how much canonical-code search the
    miners do by about 4% from seed to seed, and reordering vertices or
    edges changes the partition, and with it the work of ``update-d400``,
    by about 10%.
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"e2ebench-presentation-{seed}")

    def database(self, database: GraphDatabase) -> tuple[GraphDatabase, dict[int, int]]:
        """The reordered database and its ``old -> new gid`` map."""
        gids = self.rng.sample(database.gids(), len(database))
        gid_map = {old: new for new, old in enumerate(gids)}
        return GraphDatabase.from_graphs(database[g].copy() for g in gids), gid_map

    def graph(self, graph: LabeledGraph) -> LabeledGraph:
        """``graph`` with its vertices renumbered."""
        order = self.rng.sample(range(graph.num_vertices), graph.num_vertices)
        labels = [None] * graph.num_vertices
        for v, label in enumerate(graph.vertex_labels()):
            labels[order[v]] = label
        edges = sorted((order[u], order[v], label) for u, v, label in graph.edges())
        return LabeledGraph.from_vertices_and_edges(labels, edges)


def move_update(update, gid_map: dict[int, int]):
    """``update`` addressed to its graph's new gid."""
    return dataclasses.replace(update, gid=gid_map[update.gid])


def recipe_stream(recipe: Recipe, batches: int):
    """The recipe database, its ufreq map and ``batches`` update batches."""
    base = generate_dataset(recipe.spec, seed=RECIPE_SEED)
    ufreq = hot_vertex_assignment(base, hot_fraction=HOT_FRACTION, seed=HOT_SEED)
    generator = UpdateGenerator(20, 5, seed=UPDATE_SEED)
    scratch = base.copy(deep=True)
    stream = []
    for _ in range(batches):
        batch = generator.generate(scratch, ufreq, UPDATE_FRACTION)
        apply_updates(scratch, batch)
        stream.append(batch)
    return base, ufreq, stream


def stream_text(stream) -> str:
    return "\n".join(repr(batch) for batch in stream)


def database_after(database: GraphDatabase, stream, upto: int) -> GraphDatabase:
    """A copy of ``database`` with batches ``0..upto`` applied."""
    current = database.copy(deep=True)
    for batch in stream[: upto + 1]:
        apply_updates(current, batch)
    return current


# ----------------------------------------------------------------------
class Workload:
    name = ""
    #: Leading ops (1-s workloads) or read blocks (serve) left out of the
    #: statistics: their caches are still cold.
    warmup = 1
    #: A run measures a whole number of this many ops.
    cycle = 1
    #: Processes an op keeps busy at once (sets how it is calibrated).
    processes = 1

    def __init__(self, seed: int, recipe: Recipe, workdir: Path) -> None:
        self.seed = seed
        self.recipe = recipe
        self.workdir = workdir
        self.digests: dict[str, str] = {}
        self.failures: list[str] = []

    def prepare(self, i: int) -> None:
        """Untimed work before op ``i``."""

    def close(self) -> None:
        """Release what ``setup`` opened."""

    def fail(self, message: str) -> bool:
        self.failures.append(message)
        return False


class MineD400(Workload):
    name = "mine-d400"

    def setup(self) -> None:
        base = generate_dataset(self.recipe.spec, seed=RECIPE_SEED)
        self.database, _ = Presentation(self.seed).database(base)
        self.text = graph_io.dumps(self.database)
        self.digests = {"database": sha256(self.text)}
        self.first_dump: str | None = None
        self.first_patterns: PatternSet | None = None

    def op(self, i: int):
        database = graph_io.loads(self.text)
        result = PartMiner(k=K, max_size=self.recipe.max_size).mine(
            database, self.recipe.min_support
        )
        return result.patterns, dump_text(result.patterns)

    def after(self, i: int, out) -> bool:
        patterns, text = out
        if self.first_dump is None:
            self.first_dump, self.first_patterns = text, patterns
            return True
        if text != self.first_dump:
            return self.fail(f"op {i}: dump differs from op 0 on the same input")
        return True

    def check(self) -> tuple[float, dict]:
        oracle = GSpanMiner(max_size=self.recipe.max_size).mine(
            self.database, self.recipe.min_support
        )
        same, union = jaccard_counts(self.first_patterns, oracle)
        return same / union, {"patterns": len(self.first_patterns), "oracle": len(oracle)}

    def baseline(self) -> float:
        """Median ms of the op with whole-database Gaston in place of PartMiner."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            database = graph_io.loads(self.text)
            patterns = GastonMiner(max_size=self.recipe.max_size).mine(
                database, self.recipe.min_support
            )
            dump_text(patterns)
            times.append(time.perf_counter() - start)
        return 1000 * sorted(times)[1]


class UpdateD400(Workload):
    name = "update-d400"

    def setup(self) -> None:
        recipe = self.recipe
        base, ufreq, stream = recipe_stream(recipe, recipe.stream_batches)
        self.database, gid_map = Presentation(self.seed).database(base)
        self.ufreq = {gid_map[old]: freqs for old, freqs in ufreq.items()}
        self.stream = [
            [move_update(u, gid_map) for u in batch] for batch in stream
        ]
        self.digests = {
            "database": sha256(graph_io.dumps(self.database)),
            "stream": sha256(stream_text(self.stream)),
            "ufreq": sha256(repr(sorted(self.ufreq.items()))),
        }
        self.miner = self._initial_mine()
        self.cycle_dumps: list[str] = []
        self.cycle_results: list = []

    def _initial_mine(self) -> IncrementalPartMiner:
        miner = IncrementalPartMiner(k=K, max_size=self.recipe.max_size)
        miner.initial_mine(self.database, self.recipe.min_support, ufreq=self.ufreq)
        return miner

    @property
    def warmup(self) -> int:
        return len(self.stream)

    @property
    def cycle(self) -> int:
        return len(self.stream)

    def prepare(self, i: int) -> None:
        if i and i % len(self.stream) == 0:
            self.miner = self._initial_mine()

    def op(self, i: int):
        return self.miner.apply_updates(self.stream[i % len(self.stream)])

    def after(self, i: int, out) -> bool:
        position = i % len(self.stream)
        text = dump_text(out.patterns)
        if i < len(self.stream):
            self.cycle_dumps.append(text)
            self.cycle_results.append(out)
            return True
        if text != self.cycle_dumps[position]:
            return self.fail(f"op {i}: batch {position} result differs from cycle 0")
        return True

    def baseline(self) -> float:
        """Median ms of a from-scratch Gaston re-mine after a batch."""
        return self.remine_ms

    def check(self) -> tuple[float, dict]:
        threshold = self.database.absolute_support(self.recipe.min_support)
        same = union = false_pos = stale = 0
        self.remine_times: list[float] = []
        for position, result in enumerate(self.cycle_results):
            current = database_after(self.database, self.stream, position)
            start = time.perf_counter()
            oracle = GastonMiner(max_size=self.recipe.max_size).mine(current, threshold)
            self.remine_times.append(time.perf_counter() - start)
            a, b = jaccard_counts(result.patterns, oracle)
            same += a
            union += b
            for pattern in result.patterns:
                want = oracle.get(pattern.key)
                if want is None:
                    false_pos += 1
                elif want.support != pattern.support:
                    stale += 1
        batches = max(1, len(self.cycle_results))
        self.remine_ms = 1000 * sorted(self.remine_times)[len(self.remine_times) // 2]
        return same / max(1, union), {
            "batches_checked": len(self.cycle_results),
            "false_positives_per_batch": false_pos / batches,
            "stale_supports_per_batch": stale / batches,
        }


def wire_graph(payload: dict) -> LabeledGraph:
    """Decode a request payload's graph for the oracle, independently of the service."""
    return LabeledGraph.from_vertices_and_edges(
        payload["vertices"], [tuple(edge) for edge in payload["edges"]]
    )


def perturb(graph: LabeledGraph, rng: random.Random, edge_labels: list) -> LabeledGraph:
    """``graph`` with one edge relabelled (a near-miss match query)."""
    edges = list(graph.edges())
    u, v, label = edges[rng.randrange(len(edges))]
    out = graph.copy()
    out.set_edge_label(u, v, rng.choice([x for x in edge_labels if x != label]))
    return out


class ServeMix(Workload):
    name = "serve-mix"
    reads_per_block = 250
    reads_per_write = 500
    #: Contains answers checked against unindexed ``repro.query`` per
    #: served database version.  Every match answer of a version's first
    #: write window is checked too: serving a stale database changes only
    #: a few of them.
    contains_checks = 8

    def setup(self) -> None:
        recipe = self.recipe
        base, _ufreq, stream = recipe_stream(recipe, recipe.stream_batches)
        queries = generate_dataset(recipe.spec, seed=QUERY_GRAPHS_SEED)
        presentation = Presentation(self.seed)
        self.database, gid_map = presentation.database(base)
        stream = [[move_update(u, gid_map) for u in batch] for batch in stream]
        #: Served database versions: the base, then each batch applied.
        self.versions = [self.database] + [
            database_after(self.database, stream, b) for b in range(len(stream))
        ]
        self.patterns = GastonMiner(max_size=recipe.max_size).mine(
            self.database, recipe.min_support
        )
        # One read cycle is one write window: 3 contains to 1 match, each
        # payload once.  The payloads are the same for every seed (only
        # their order is seeded), and every window reads the same ones
        # against a freshly reloaded engine, so reads measure the engine,
        # not its answer LRU.
        contains_reads = self.reads_per_write * 3 // 4
        match_reads = self.reads_per_write - contains_reads
        rng = presentation.rng
        contains_graphs = [queries[g] for g in queries.gids()[:contains_reads]]
        rng.shuffle(contains_graphs)
        self.contains_payloads = [{"graph": encode_graph(g)} for g in contains_graphs]
        fixed = random.Random("e2ebench-match-payloads")
        pattern_graphs = [
            min_dfs_code(p.graph).to_graph()  # vertex ids that no seed changes
            for p in sorted(self.patterns, key=lambda p: p.key)
        ]
        edge_labels = sorted({label for g in pattern_graphs for _u, _v, label in g.edges()})
        pool = pattern_graphs + [perturb(g, fixed, edge_labels) for g in pattern_graphs]
        match_graphs = fixed.sample(pool, min(match_reads, len(pool)))
        rng.shuffle(match_graphs)
        self.match_payloads = [{"pattern": encode_graph(g)} for g in match_graphs]
        self.read_cycle = []
        contains_i = match_i = 0
        for j in range(self.reads_per_write):
            if j % 4 == 3:
                self.read_cycle.append(("match", match_i % len(self.match_payloads)))
                match_i += 1
            else:
                self.read_cycle.append(("contains", contains_i % len(self.contains_payloads)))
                contains_i += 1
        self.sample_positions = set(rng.sample(range(len(self.read_cycle)), 100))
        self.digests = {
            "database": sha256(graph_io.dumps(self.database)),
            "versions": sha256(*(graph_io.dumps(db) for db in self.versions[1:])),
            "payloads": sha256(repr(self.contains_payloads), repr(self.match_payloads)),
            "patterns": sha256(dump_text(self.patterns)),
        }
        self.workdir.mkdir(parents=True, exist_ok=True)
        catalog_dir = self.workdir / f"catalog-{id(self)}"
        self.catalog = PatternCatalog(catalog_dir)
        self.catalog.publish(self.patterns, database=self.versions[0])
        self.service = PatternService(self.catalog, self.versions[0], workers=1)
        self.served = 0  # index into versions
        self.published = self.catalog.current_version()
        self.writes = 0
        self.samples: list[tuple] = []
        self.sampled: dict[tuple, int] = {}  # (kind, served) -> answers kept

    def close(self) -> None:
        self.service.close()

    def read(self, i: int) -> dict:
        kind, index = self.read_cycle[i % len(self.read_cycle)]
        payloads = self.match_payloads if kind == "match" else self.contains_payloads
        return self.service.execute(kind, payloads[index])

    def after_read(self, i: int, answer: dict) -> None:
        position = i % len(self.read_cycle)
        kind, index = self.read_cycle[position]
        key = (kind, self.served)
        if kind == "match":
            wanted = len(self.match_payloads)
        else:
            wanted = self.contains_checks if position in self.sample_positions else 0
        if self.sampled.get(key, 0) < wanted:
            self.sampled[key] = self.sampled.get(key, 0) + 1
            self.samples.append((kind, index, self.served, self.published, answer))

    def prepare_write(self) -> None:
        """Untimed: a new object for the next version, as a fresh load gives."""
        self.writes += 1
        self.served = self.writes % len(self.versions)
        self._next = self.versions[self.served].copy(deep=True)

    def write(self) -> None:
        """Publish the patterns against the next database version, reload."""
        database = self._next
        self.catalog.publish(self.patterns, database=database)
        if not self.service.reload(database=database):
            raise RuntimeError("reload did not install the published snapshot")

    def after_write(self) -> None:
        self.published = self.catalog.current_version()
        self.catalog.prune(keep=2)

    def check(self) -> tuple[float, dict]:
        entries = self.service.engine.snapshot.entries
        pid_of = {entry.key: entry.pid for entry in entries}
        good = 0
        self.linear_times = {"contains": [], "match": []}
        for kind, index, served, published, answer in self.samples:
            if answer["version"] != published:
                self.fail(f"{kind} on version {served}: served snapshot {answer['version']} != {published}")
                continue
            start = time.perf_counter()
            if kind == "contains":
                graph = wire_graph(self.contains_payloads[index]["graph"])
                found = query.match_patterns(
                    self.patterns,
                    GraphDatabase.from_graphs([graph]),
                    min_support=1,
                    use_accel=False,
                )
                want = sorted(pid_of[p.key] for p in found)
                got = sorted(answer["pids"])
            else:
                found = query.match(
                    wire_graph(self.match_payloads[index]["pattern"]),
                    self.versions[served],
                    max_occurrences_per_graph=1,
                )
                want = sorted(found.supporting_gids)
                got = answer["gids"]
            self.linear_times[kind].append(time.perf_counter() - start)
            if want == got:
                good += 1
            else:
                self.fail(f"{kind} payload {index} on version {served}: {got} != {want}")
        versions = len({served for _kind, _index, served, _published, _answer in self.samples})
        return good / max(1, len(self.samples)), {
            "answers_checked": len(self.samples),
            "versions_checked": versions,
        }

    def baseline(self) -> float:
        """Median ms of checked reads answered by unindexed ``repro.query``, in the 3:1 read mix."""
        contains = self.linear_times["contains"]
        times = sorted(contains + self.linear_times["match"][: len(contains) // 3])
        return 1000 * times[len(times) // 2] if times else 0.0


class BigSharded(Workload):
    name = "big-sharded"
    processes = 2

    def setup(self) -> None:
        recipe = self.recipe
        spec = LargeGraphSpec(
            vertices=recipe.big_vertices,
            edges_per_vertex=2,
            num_labels=10,
            communities=4,
            planted=2,
            copies=recipe.big_copies,
            seed=17,
        )
        generated = generate_large_graph(spec)
        planted = [p.graph for p in generated.planted]
        self.graph = Presentation(self.seed).graph(generated.graph)
        self.planted_keys = [canonical_code(g) for g in planted]
        self.copies = spec.copies
        self.digests = {
            "graph": sha256(repr(encode_graph(self.graph))),
        }
        self.dumps: list[str] = []

    def miner(self, shards: int) -> BigGraphMiner:
        return BigGraphMiner(radius=1, max_size=3, shards=shards)

    def op(self, i: int):
        return self.miner(2).mine(self.graph, self.copies)

    def after(self, i: int, out) -> bool:
        self.dumps.append(dump_text(out.patterns, meta=out.meta()))
        for key in self.planted_keys:
            found = out.patterns.get(key)
            if found is None or found.support != self.copies:
                got = None if found is None else found.support
                return self.fail(f"op {i}: planted pattern support {got} != {self.copies}")
        return True

    def check(self) -> tuple[float, dict]:
        start = time.perf_counter()
        serial = self.miner(0).mine(self.graph, self.copies)
        self.serial_ms = 1000 * (time.perf_counter() - start)
        reference = dump_text(serial.patterns, meta=serial.meta())
        same = sum(1 for text in self.dumps if text == reference)
        for i, text in enumerate(self.dumps):
            if text != reference:
                self.fail(f"op {i}: sharded dump differs from the serial dump")
        return same / max(1, len(self.dumps)), {"patterns": len(serial.patterns)}

    def baseline(self) -> float:
        """Ms of one serial (unsharded) mine of the same graph."""
        return self.serial_ms


WORKLOADS = {cls.name: cls for cls in (MineD400, UpdateD400, ServeMix, BigSharded)}
