"""Graph algorithms over the edges table: connected components, degrees.

Connected components = min-label propagation (the alias-clustering step
for canonical entities; also the final stage of MinHash-LSH dedup per the
Ray guide): iterate "label(node) ← min(label(node), label(neighbor))"
until fixpoint.

Two implementations of the same fixpoint:

- :func:`connected_components` — the label table (one row per distinct
  node, orders of magnitude smaller than the edge set) is broadcast via
  ``ray.put`` each round; right when labels fit one machine (entity
  graphs: bounded by distinct surfaces, not edges).
- :func:`connected_components_join` — the 100 TB path: labels stay a
  DATASET; each round is a hash join of the (doubled) adjacency against
  the label table, a coarse-partitioned vectorized min per node, and an
  anti-join convergence check. Nothing node- or edge-scaled ever
  touches the driver; per-round label tables are materialized (spill to
  the object store) so the lineage does not grow with iterations.

Every coarse shuffle here is ``stages/exchange.py:exchange``; the
distinct-pair prologue and the per-node count that several algorithms
share are :func:`_distinct_pairs` and :func:`_node_counts`.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import exchange


def _directed(u, v):
    return ((u, v),)


def _both_ways(u, v):
    """Both directions of an edge; a self-loop contributes nothing."""
    return () if u == v else ((u, v), (v, u))


def _canonical(u, v):
    """The undirected edge as its (smaller, larger) pair; a self-loop
    contributes nothing."""
    return () if u == v else (((u, v) if u < v else (v, u)),)


def _distinct_pairs(edges_ds, src: str, dst: str, pairs_of, cols,
                    num_parts: int | None):
    """Materialized DISTINCT node pairs of the edge table, as string
    columns ``cols``: ``pairs_of(u, v)`` maps one edge to the pairs it
    contributes (:func:`_directed`, :func:`_both_ways`,
    :func:`_canonical`). Per-batch pre-dedup (combiner) → ``exchange``
    on the pair → in-part drop_duplicates on NUL-safe bytes keys."""
    a, b = cols

    def pair_partial(batch: pa.Table) -> pa.Table:
        pairs = sorted(
            {
                p
                for u, v in zip(
                    batch.column(src).to_pylist(),
                    batch.column(dst).to_pylist(),
                )
                for p in pairs_of(u, v)
            }
        )
        return pa.table(
            {
                a: pa.array([p[0] for p in pairs], pa.string()),
                b: pa.array([p[1] for p in pairs], pa.string()),
            }
        )

    def pair_dedup(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(
            _k=[
                (x.encode("utf-8"), y.encode("utf-8"))
                for x, y in zip(g[a], g[b])
            ]
        )
        return g.drop_duplicates("_k")[[a, b]].reset_index(drop=True)

    return exchange(
        edges_ds.select_columns([src, dst]), [a, b], pair_dedup,
        combine=pair_partial, num_parts=num_parts,
    ).materialize()


def _node_counts(ds, cols, node: str, count: str,
                 num_parts: int | None = None):
    """(``node``, ``count``): how often each node appears across the
    string columns ``cols``. Per-batch Counter (combiner) →
    ``exchange`` on the node → vectorized pandas sum per part (one Ray
    group per PART, never per node; NUL-safe bytes group key)."""
    from collections import Counter

    def count_partial(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        for c in cols:
            counts.update(batch.column(c).to_pylist())
        ks = list(counts)
        return pa.table(
            {
                node: pa.array(ks, pa.string()),
                count: pa.array([counts[k] for k in ks], pa.int64()),
            }
        )

    def count_merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(_k=[n.encode("utf-8") for n in g[node]])
        out = g.groupby("_k", as_index=False).agg(
            **{node: (node, "first"), count: (count, "sum")}
        )
        return out[[node, count]]

    return exchange(ds, node, count_merge, combine=count_partial,
                    num_parts=num_parts)


def node_degrees(edges_ds, src: str = "src", dst: str = "dst",
                 num_parts: int | None = None):
    """Degree per node (in+out), as (node_id, degree)."""
    return _node_counts(edges_ds, (src, dst), "node_id", "degree",
                        num_parts)


def connected_components(
    edges_ds, src: str = "src", dst: str = "dst", max_iters: int | None = None
):
    """Returns a pandas DataFrame (node_id, component) where component is
    the lexicographic-min node id of the component. Deterministic.

    Iterates until convergence (min-label propagation advances one hop
    per round, so rounds ≈ component diameter). ``max_iters`` is a
    safety cap only: hitting it raises instead of returning a silently
    partial labeling."""
    import ray

    # materialized: consumed once for init labels plus once per
    # propagation round — lazy would re-run the whole upstream pipeline
    # every iteration
    pairs = edges_ds.select_columns([src, dst]).materialize()
    if pairs.count() == 0:
        # empty edge set: unique() over an executed-empty dataset yields
        # None — return the empty labeling explicitly (the join variant
        # guards the same case via adj.count()); module-level pd (a
        # local import here would shadow it for the whole function)
        return pd.DataFrame({"node_id": [], "component": []}, dtype=object)

    # initial labels: every endpoint labels itself
    def init_labels(batch: pa.Table) -> pa.Table:
        nodes = set(batch.column(src).to_pylist())
        nodes.update(batch.column(dst).to_pylist())
        nodes = sorted(nodes)
        return pa.table({"node_id": pa.array(nodes, pa.string())})

    label_rows = (
        pairs.map_batches(init_labels, batch_format="pyarrow")
        .unique("node_id")
    )
    labels = {n: n for n in label_rows}

    iteration = 0
    while True:
        iteration += 1
        if max_iters is not None and iteration > max_iters:
            raise RuntimeError(
                f"connected_components did not converge in {max_iters} "
                "iterations (component diameter exceeds the cap)"
            )
        labels_ref = ray.put(labels)

        def propagate(batch: pa.Table) -> pa.Table:
            lab = ray.get(labels_ref)
            out: dict = {}
            for u, v in zip(
                batch.column(src).to_pylist(), batch.column(dst).to_pylist()
            ):
                lo = min(lab[u], lab[v])
                for node in (u, v):
                    if lo < out.get(node, lab[node]):
                        out[node] = lo
            return pa.table(
                {
                    "node_id": pa.array(list(out), pa.string()),
                    "label": pa.array(list(out.values()), pa.string()),
                }
            )

        proposals = pairs.map_batches(propagate, batch_format="pyarrow")

        changed = False
        for row in proposals.iter_rows():
            node, label = row["node_id"], row["label"]
            if label < labels[node]:
                labels[node] = label
                changed = True
        if not changed:
            break

    return pd.DataFrame(
        {"node_id": list(labels), "component": list(labels.values())}
    ).sort_values("node_id").reset_index(drop=True)


def connected_components_join(
    edges_ds, src: str = "src", dst: str = "dst",
    max_iters: int | None = None,
):
    """Distributed min-label propagation with the LABELS AS A DATASET —
    the scale path when the node table itself exceeds driver memory.

    Per round: adjacency ⋈ labels (hash join on the neighbor id) unions
    the nodes' own labels, a coarse-partitioned Arrow hash ``min``
    picks each node's new label (cluster-scaled part count — never one
    Ray group per node), and a left_anti join of new against old on
    (node_id, label) counts changed rows for convergence. Returns a
    Dataset (node_id, component); same deterministic result as
    :func:`connected_components` (lexicographic-min component ids)."""
    import ray

    from .dataops import cluster_cpus

    num_join_parts = max(2, cluster_cpus() // 4)

    # doubled adjacency (node, nbr): propagate both directions
    def doubled(batch: pa.Table) -> pa.Table:
        u = batch.column(src).to_pylist()
        v = batch.column(dst).to_pylist()
        return pa.table(
            {
                "node_id": pa.array(u + v, pa.string()),
                "nbr": pa.array(v + u, pa.string()),
            }
        )

    adj = edges_ds.select_columns([src, dst]).map_batches(
        doubled, batch_format="pyarrow"
    ).materialize()

    if adj.count() == 0:
        import ray.data

        return ray.data.from_arrow(
            pa.table(
                {
                    "node_id": pa.array([], pa.string()),
                    "component": pa.array([], pa.string()),
                }
            )
        )

    def init_labels(batch: pa.Table) -> pa.Table:
        nodes = sorted(set(batch.column("node_id").to_pylist()))
        return pa.table(
            {
                "node_id": pa.array(nodes, pa.string()),
                "label": pa.array(nodes, pa.string()),
            }
        )

    def part_min(g: pa.Table) -> pa.Table:
        # Arrow hash aggregate: NUL-safe, and its string min (utf-8 byte
        # order = code-point order) runs without a Python call per node
        out = g.group_by("node_id", use_threads=False).aggregate(
            [("label", "min")]
        )
        return out.select(["node_id", "label_min"]).rename_columns(
            ["node_id", "label"]
        )

    labels = exchange(
        adj.map_batches(init_labels, batch_format="pyarrow"), "node_id",
        part_min, batch_format="pyarrow",
    ).materialize()

    # A hash-join partition that receives ZERO rows on a side is built
    # schemaless by Ray and pyarrow then cannot resolve that side's key
    # FieldRef (measured on tiny graphs: 3 labels over 2 partitions).
    # Cap the partition count by the DISTINCT-node count — the size of
    # the join's label side — so every partition is expected non-empty;
    # labels is materialized, so count() is metadata-only.
    num_join_parts = max(1, min(num_join_parts, labels.count() // 16 + 1))

    iteration = 0
    while True:
        iteration += 1
        if max_iters is not None and iteration > max_iters:
            raise RuntimeError(
                f"connected_components_join did not converge in "
                f"{max_iters} iterations"
            )
        nbr_labels = adj.join(
            labels.map_batches(
                lambda b: pa.table(
                    {
                        "__lbl_node": b.column("node_id"),
                        "label": b.column("label"),
                    }
                ),
                batch_format="pyarrow",
            ),
            join_type="inner",
            num_partitions=num_join_parts,
            on=("nbr",),
            right_on=("__lbl_node",),
        ).select_columns(["node_id", "label"])
        new_labels = exchange(
            [nbr_labels, labels.select_columns(["node_id", "label"])],
            "node_id", part_min, batch_format="pyarrow",
        ).materialize()
        changed = new_labels.join(
            labels,
            join_type="left_anti",
            num_partitions=num_join_parts,
            on=("node_id", "label"),
        ).count()
        labels = new_labels
        if changed == 0:
            break

    return labels.map_batches(
        lambda b: pa.table(
            {"node_id": b.column("node_id"), "component": b.column("label")}
        ),
        batch_format="pyarrow",
    )


def pagerank_join(
    edges_ds, src: str = "src", dst: str = "dst", *,
    iterations: int = 3, scale: int = 10**12,
    num_parts: int | None = None,
):
    """Integer-exact PageRank (damping 0.85, ``iterations`` fixed
    rounds) with every table a DATASET — the same 100-TB shape as
    :func:`connected_components_join`.

    Exact integer recurrence (bit-reproducible by a DuckDB oracle, no
    float drift):

        pr_0[v]     = scale // N
        contrib[u]  = pr_k[u] // outdeg[u]          (u with outdeg > 0)
        pr_{k+1}[v] = (15*scale) // (100*N)
                      + (85 * sum_in(contrib)) // 100

    over DISTINCT (src, dst) edges; dangling-node mass is dropped (the
    usual sink-redistribution would need a per-round global scalar — an
    extra all-reduce — and the oracle mirrors the same choice).

    Shapes: distinct-edges and out-degrees computed once (per-batch
    combiner → ``exchange``, one Ray group per PART, never per node);
    per round one hash join (adjacency-with-degree ⋈ pr on src) and
    one coarse-partitioned per-dst sum; nodes with no in-edges get
    their base term via a UNION of zero rows instead of an outer join.
    Returns a Dataset (node_id, pr_scaled)."""
    import ray.data

    from .dataops import cluster_cpus

    ed = _distinct_pairs(edges_ds, src, dst, _directed, ("src", "dst"),
                         num_parts)

    empty = pa.table(
        {
            "node_id": pa.array([], pa.string()),
            "pr_scaled": pa.array([], pa.int64()),
        }
    )
    if ed.count() == 0:
        return ray.data.from_arrow(empty)

    # --- nodes (distinct endpoints) and out-degrees, one pass each
    nodes = (
        _node_counts(ed, ("src", "dst"), "node_id", "n", num_parts)
        .select_columns(["node_id"])
        .materialize()
    )
    n_nodes = nodes.count()
    # ed is already distinct, so a src's row count is its out-degree
    outdeg = _node_counts(ed, ("src",), "src", "d", num_parts)

    # adjacency with the degree attached once (outdeg is static):
    # (src, dst, d) — per-round work is then ONE join on src
    num_join_parts = max(
        1, min(max(2, cluster_cpus() // 4), n_nodes // 16 + 1)
    )
    adj_deg = ed.join(
        outdeg.map_batches(
            lambda b: pa.table(
                {"__deg_src": b.column("src"), "d": b.column("d")}
            ),
            batch_format="pyarrow",
        ),
        join_type="inner",
        num_partitions=num_join_parts,
        on=("src",),
        right_on=("__deg_src",),
    ).select_columns(["src", "dst", "d"]).materialize()

    base = (15 * scale) // (100 * n_nodes)
    pr0 = scale // n_nodes

    pr = nodes.map_batches(
        lambda b: pa.table(
            {
                "node_id": b.column("node_id"),
                "pr": pa.array([pr0] * b.num_rows, pa.int64()),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    zeros = nodes.map_batches(
        lambda b: pa.table(
            {
                "node_id": b.column("node_id"),
                "s": pa.array([0] * b.num_rows, pa.int64()),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    def contrib_partial(batch: pa.Table) -> pa.Table:
        df = batch.select(["dst", "pr", "d"]).to_pandas()
        df["s"] = df["pr"].to_numpy() // df["d"].to_numpy()
        g = df.assign(_k=[x.encode("utf-8") for x in df["dst"]]).groupby(
            "_k", as_index=False
        ).agg(node_id=("dst", "first"), s=("s", "sum"))
        return pa.Table.from_pandas(
            g[["node_id", "s"]], preserve_index=False
        )

    def sum_per_node(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(_k=[n.encode("utf-8") for n in g["node_id"]])
        out = g.groupby("_k", as_index=False).agg(
            node_id=("node_id", "first"), s=("s", "sum")
        )
        out["pr"] = base + (85 * out["s"]) // 100
        return out[["node_id", "pr"]]

    for _ in range(iterations):
        contribs = adj_deg.join(
            pr.map_batches(
                lambda b: pa.table(
                    {"__pr_node": b.column("node_id"), "pr": b.column("pr")}
                ),
                batch_format="pyarrow",
            ),
            join_type="inner",
            num_partitions=num_join_parts,
            on=("src",),
            right_on=("__pr_node",),
        ).map_batches(contrib_partial, batch_format="pyarrow")
        pr = exchange(
            [contribs, zeros], "node_id", sum_per_node, num_parts=num_parts
        ).materialize()

    return pr.map_batches(
        lambda b: pa.table(
            {
                "node_id": b.column("node_id"),
                "pr_scaled": b.column("pr").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def label_propagation_join(
    edges_ds, src: str = "src", dst: str = "dst", *,
    iterations: int = 3, num_parts: int | None = None,
):
    """Deterministic SYNCHRONOUS label propagation (community
    detection, Raghavan et al. 2007) over the undirected distinct
    neighbor graph, every table a Dataset — the same 100-TB shape as
    :func:`pagerank_join`.

    The classic algorithm's async visit order and random tie-breaks
    are replaced by a total order so a SQL oracle can mirror it
    bit-for-bit:

        label_0[v]     = v
        label_{k+1}[v] = most frequent label among v's DISTINCT
                         neighbors; ties → smallest label
                         (utf-8 byte order — DuckDB's binary collation)

    Self-loops are dropped (a node voting its own label is not a
    neighbor vote); nodes with only self-loops vanish with them.
    Fixed ``iterations`` rounds; returns (node_id, label).

    Shapes: distinct both-direction neighbor pairs once (combiner →
    ``exchange``); per round ONE hash join (neighbors ⋈
    labels on src) and one coarse-partitioned per-dst vote count —
    never one Ray group per node. Both directions are materialized, so
    every node appears as dst and the inner join covers all nodes (no
    zero-row union needed)."""
    import ray.data

    from .dataops import cluster_cpus

    und = _distinct_pairs(edges_ds, src, dst, _both_ways, ("src", "dst"),
                          num_parts)
    if und.count() == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "node_id": pa.array([], pa.string()),
                    "label": pa.array([], pa.string()),
                }
            )
        )

    # both directions exist, so distinct src IS the node set
    nodes = (
        _node_counts(und, ("src",), "node_id", "n", num_parts)
        .select_columns(["node_id"])
        .materialize()
    )
    n_nodes = nodes.count()
    num_join_parts = max(
        1, min(max(2, cluster_cpus() // 4), n_nodes // 16 + 1)
    )

    labels = nodes.map_batches(
        lambda b: pa.table(
            {
                "node_id": b.column("node_id"),
                "label": b.column("node_id"),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    def vote_partial(batch: pa.Table) -> pa.Table:
        df = batch.select(["dst", "label"]).to_pandas()
        g = df.assign(
            _kn=[x.encode("utf-8") for x in df["dst"]],
            _kl=[x.encode("utf-8") for x in df["label"]],
        ).groupby(["_kn", "_kl"], as_index=False).agg(
            node_id=("dst", "first"), label=("label", "first"),
            c=("label", "size"),
        )
        return pa.Table.from_pandas(
            g[["node_id", "label", "c"]], preserve_index=False
        )

    def vote_finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(
            _kn=[x.encode("utf-8") for x in g["node_id"]],
            _kl=[x.encode("utf-8") for x in g["label"]],
        )
        agg = g.groupby(["_kn", "_kl"], as_index=False).agg(
            node_id=("node_id", "first"), label=("label", "first"),
            c=("c", "sum"),
        )
        agg = agg.sort_values(
            ["_kn", "c", "_kl"], ascending=[True, False, True]
        )
        return agg.drop_duplicates("_kn")[["node_id", "label"]]

    for _ in range(iterations):
        votes = und.join(
            labels.map_batches(
                lambda b: pa.table(
                    {
                        "__lp_node": b.column("node_id"),
                        "label": b.column("label"),
                    }
                ),
                batch_format="pyarrow",
            ),
            join_type="inner",
            num_partitions=num_join_parts,
            on=("src",),
            right_on=("__lp_node",),
        )
        labels = exchange(
            votes, "node_id", vote_finish, combine=vote_partial,
            num_parts=num_parts,
        ).materialize()

    return labels


def kcore_join(
    edges_ds, src: str = "src", dst: str = "dst", *,
    k: int = 2, rounds: int = 5, num_parts: int | None = None,
):
    """Fixed-round k-core peel over the undirected distinct neighbor
    graph, every table a Dataset. Round r: degree over the surviving
    edge set; keep nodes with degree ≥ k; keep edges whose BOTH
    endpoints survive. ``rounds`` is FIXED (not run-to-convergence) so
    an unrolled-CTE SQL oracle mirrors it exactly; on graphs where the
    peel converges within ``rounds`` this IS the k-core. Returns
    (node_id, deg) — final degrees over the surviving edge set.

    Shapes: distinct both-direction pairs once (combiner →
    ``exchange``, as :func:`label_propagation_join`); per round
    exactly TWO coarse co-group exchanges and no native hash join
    (Ray's join pays tens of seconds of fixed cost per call —
    measured: the join formulation of this loop ran 9.5 min on the
    sf0.001 fixture, this one seconds). Both edge directions exist,
    so a node's degree is computable in ITS part whether the part is
    keyed by src or dst: exchange 1 (by src) stamps ``src_ok`` =
    deg(src) ≥ k; exchange 2 (by dst) computes deg(dst) the same way
    and keeps rows with both flags — both degrees read the SAME
    pre-round edge set, which is exactly the synchronous peel. Never
    a broadcast node set (at KG scale survivors outgrow any driver
    list)."""
    import ray.data

    und = _distinct_pairs(edges_ds, src, dst, _both_ways, ("src", "dst"),
                          num_parts)

    empty = pa.table(
        {
            "node_id": pa.array([], pa.string()),
            "deg": pa.array([], pa.int64()),
        }
    )
    if und.count() == 0:
        return ray.data.from_arrow(empty)

    def stamp_src_ok(g: pd.DataFrame) -> pd.DataFrame:
        # part keyed by src: every edge of each src is here, so its
        # degree is an in-part count (bytes keys: NUL-safe). FLAG only
        # — dropping rows here would shrink the dst-side counts in the
        # second exchange and turn the peel asynchronous (a faster
        # fixpoint walk, but then a fixed-round SQL oracle can't
        # mirror the intermediate states).
        sk = [x.encode("utf-8") for x in g["src"]]
        g = g.assign(_sk=sk)
        deg = g.groupby("_sk")["_sk"].transform("size")
        out = g[["src", "dst"]].reset_index(drop=True)
        out["src_ok"] = (deg >= k).to_numpy()
        return out

    def filter_dst(g: pd.DataFrame) -> pd.DataFrame:
        # part keyed by dst over the FULL pre-round edge set: deg(dst)
        # here equals the same round's deg(src) stamped above, so
        # keeping src_ok ∧ deg(dst) ≥ k is exactly the synchronous
        # round
        dk = [x.encode("utf-8") for x in g["dst"]]
        g = g.assign(_dk=dk)
        deg = g.groupby("_dk")["_dk"].transform("size")
        return g[(deg >= k) & g["src_ok"]][["src", "dst"]].reset_index(
            drop=True
        )

    for _ in range(rounds):
        stamped = exchange(und, "src", stamp_src_ok, num_parts=num_parts)
        und = exchange(
            stamped, "dst", filter_dst, num_parts=num_parts
        ).materialize()
        if und.count() == 0:
            return ray.data.from_arrow(empty)

    return _node_counts(und, ("src",), "node_id", "deg", num_parts)


def triangle_count(edges_ds, src: str = "src", dst: str = "dst",
                   num_parts: int | None = None):
    """Exact triangle count of the undirected graph, via degree-ordered
    wedge generation (the Suri & Vassilvitskii 2011 MapReduce pattern):

    1. canonical DISTINCT undirected edges (a<b, self-loops dropped) —
       per-batch combiner → coarse partition dedup;
    2. degrees over canonical edges (same coarse shape);
    3. orient every edge from its (degree, id)-smaller endpoint: each
       node's OUT-degree is then O(sqrt(m)), so total wedges are
       O(m^1.5) even on hub-dominated graphs — the property that makes
       this the 100-TB shape (naive per-node neighbor pairs are
       O(sum deg^2), unbounded under skew);
    4. wedges per tail (out-neighbor pairs ordered by (deg, id),
       vectorized numpy pair expansion per part);
    5. wedge ⋈ oriented-edge on the (head1, head2) pair — via a
       side-tagged ``exchange``, not the native join: the wedge side
       is legitimately EMPTY on triangle-free graphs and Ray's hash
       join cannot take a zero-row side.

    Returns a one-row Dataset (n_triangles int64).
    """
    import numpy as np
    import ray.data
    from ray.data.aggregate import Sum

    from .joins import _SIDE

    one_row_zero = pa.table({"n_triangles": pa.array([0], pa.int64())})

    # --- 1. canonical distinct edges
    ed = _distinct_pairs(edges_ds, src, dst, _canonical, ("a", "b"),
                         num_parts)
    if ed.count() == 0:
        return ray.data.from_arrow(one_row_zero)

    # --- 2. degrees
    deg = _node_counts(ed, ("a", "b"), "node", "deg", num_parts)
    deg = deg.materialize()

    # --- 3. orient low→high by (deg, id): two hash joins attach both
    # endpoint degrees (partition count capped by the node count — the
    # empty-partition rule, see connected_components_join)
    from .dataops import cluster_cpus

    n_nodes = deg.count()
    njp = max(1, min(max(2, cluster_cpus() // 4), n_nodes // 16 + 1))

    with_da = ed.join(
        deg.map_batches(
            lambda t: pa.table(
                {"__na": t.column("node"), "da": t.column("deg")}
            ),
            batch_format="pyarrow",
        ),
        join_type="inner", num_partitions=njp, on=("a",),
        right_on=("__na",),
    )
    with_db = with_da.join(
        deg.map_batches(
            lambda t: pa.table(
                {"__nb": t.column("node"), "db": t.column("deg")}
            ),
            batch_format="pyarrow",
        ),
        join_type="inner", num_partitions=njp, on=("b",),
        right_on=("__nb",),
    )

    def orient(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        fwd = (df["da"] < df["db"]) | (
            (df["da"] == df["db"]) & (df["a"] < df["b"])
        )
        tail = df["a"].where(fwd, df["b"])
        head = df["b"].where(fwd, df["a"])
        hdeg = df["db"].where(fwd, df["da"])
        out = pd.DataFrame(
            {"tail": tail, "head": head, "hdeg": hdeg}
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    oriented = with_db.map_batches(
        orient, batch_format="pyarrow"
    ).materialize()

    # --- 4. wedges: per tail, ordered out-neighbor pairs
    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["tail", "hdeg", "head"], kind="mergesort")
        # bytes group key (NUL-safe in pandas' object hashtable)
        g = g.assign(_tk=[t.encode("utf-8") for t in g["tail"]])
        outs: list = []
        for _, grp in g.groupby("_tk", sort=False):
            k = len(grp)
            if k < 2:
                continue
            heads = grp["head"].to_numpy()
            iu, ju = np.triu_indices(k, 1)
            outs.append(
                pd.DataFrame({"wv": heads[iu], "ww": heads[ju]})
            )
        if not outs:
            return pd.DataFrame({"wv": pd.Series([], dtype="object"),
                                 "ww": pd.Series([], dtype="object")})
        return pd.concat(outs, ignore_index=True)

    wedge_ds = exchange(oriented, "tail", wedges, num_parts=num_parts)

    # --- 5. wedge ⋈ oriented edge on the head pair, empty-safe co-group:
    # both sides as (v, w, side) rows with explicit Arrow string types
    # (pandas-block schemas carry Python classes, and a triangle-free
    # graph has ZERO wedges, so no schema to introspect), exchanged on v
    def as_pairs(side: int, v_col: str, w_col: str):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "v": t.column(v_col).cast(pa.string()),
                    "w": t.column(w_col).cast(pa.string()),
                    _SIDE: pa.array([side] * t.num_rows, pa.int64()),
                }
            )

        return fn

    arms = [
        wedge_ds.map_batches(as_pairs(0, "wv", "ww"), batch_format="pyarrow"),
        oriented.map_batches(
            as_pairs(1, "tail", "head"), batch_format="pyarrow"
        ),
    ]

    def close_count(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        w = df[df[_SIDE] == 0]
        e = df[df[_SIDE] == 1]
        if len(w) == 0 or len(e) == 0:
            n = 0
        else:
            # NUL-safe bytes pair keys for the set membership
            ek = set(
                zip(
                    (s.encode("utf-8") for s in e["v"]),
                    (s.encode("utf-8") for s in e["w"]),
                )
            )
            n = sum(
                (a.encode("utf-8"), b.encode("utf-8")) in ek
                for a, b in zip(w["v"], w["w"])
            )
        return pa.table({"n_triangles": pa.array([n], pa.int64())})

    total = (
        exchange(arms, "v", close_count, batch_format="pyarrow",
                 num_parts=num_parts)
        .aggregate(Sum("n_triangles", alias_name="n_triangles"))
    )
    n = int(total["n_triangles"] or 0)
    return ray.data.from_arrow(
        pa.table({"n_triangles": pa.array([n], pa.int64())})
    )


def common_neighbors_topk(edges_ds, *, k: int = 20, src: str = "src",
                          dst: str = "dst",
                          max_degree: int | None = None,
                          num_parts: int | None = None):
    """Common-neighbor link prediction: the top-``k`` NON-adjacent node
    pairs ranked by how many neighbors they share (Liben-Nowell &
    Kleinberg 2003's strongest simple baseline).

    Shapes (all coarse-partitioned, nothing per-node on the driver):

    1. canonical DISTINCT undirected edges (a<b) — per-batch combiner →
       ``exchange`` dedup (same stage as triangle_count);
    2. both-direction adjacency, partitioned by CENTER node: each
       center's sorted neighbor list expands to its wedge pairs with a
       vectorized ``triu_indices`` — pair counts pre-summed per part
       before the exchange;
    3. pair-keyed tagged co-group of (candidate-pair counts, canonical
       edges): per part, sum counts, drop pairs that are already edges
       (set membership on NUL-safe bytes keys), keep the per-part
       top-k; the global merge is a tiny sort/limit over P·k rows —
       valid because a pair's rows land in exactly one part.

    Wedges per center are O(deg²): EXACT by default; on hub-dominated
    100-TB graphs pass ``max_degree`` to skip centers above the cap
    (the standard approximation — documented, opt-in, never silent).

    Returns (node_a, node_b, n_common), n_common int64.
    """
    import numpy as np
    import ray.data

    from .joins import _SIDE

    empty = pa.table(
        {
            "node_a": pa.array([], pa.string()),
            "node_b": pa.array([], pa.string()),
            "n_common": pa.array([], pa.int64()),
        }
    )

    # --- 1. canonical distinct edges
    ed = _distinct_pairs(edges_ds, src, dst, _canonical, ("a", "b"),
                         num_parts)
    if ed.count() == 0:
        return ray.data.from_arrow(empty)

    # --- 2. adjacency by center → per-part wedge-pair counts
    def adj_both(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_pylist()
        b = batch.column("b").to_pylist()
        return pa.table(
            {
                "c": pa.array(a + b, pa.string()),
                "n": pa.array(b + a, pa.string()),
            }
        )

    def wedge_counts(g: pd.DataFrame) -> pd.DataFrame:
        # ed is globally distinct, so (c, n) rows are distinct already
        g = g.sort_values(["c", "n"], kind="mergesort")
        g = g.assign(_ck=[c.encode("utf-8") for c in g["c"]])
        outs: list = []
        for _, grp in g.groupby("_ck", sort=False):
            d = len(grp)
            if d < 2 or (max_degree is not None and d > max_degree):
                continue
            nbrs = grp["n"].to_numpy()
            iu, ju = np.triu_indices(d, 1)
            outs.append(
                pd.DataFrame({"node_a": nbrs[iu], "node_b": nbrs[ju]})
            )
        if not outs:
            return pd.DataFrame(
                {
                    "node_a": pd.Series([], dtype="object"),
                    "node_b": pd.Series([], dtype="object"),
                    "cnt": pd.Series([], dtype="int64"),
                }
            )
        pairs = pd.concat(outs, ignore_index=True)
        pairs["_k"] = [
            (x.encode("utf-8"), y.encode("utf-8"))
            for x, y in zip(pairs["node_a"], pairs["node_b"])
        ]
        out = pairs.groupby("_k", as_index=False).agg(
            node_a=("node_a", "first"),
            node_b=("node_b", "first"),
            cnt=("node_a", "size"),
        )
        return out[["node_a", "node_b", "cnt"]].astype({"cnt": "int64"})

    wedge_ds = exchange(ed, "c", wedge_counts, combine=adj_both,
                        num_parts=num_parts)

    # --- 3. pair-keyed co-group: sum counts, anti-join edges, top-k/part
    def conform(side: int, a_col: str, b_col: str):
        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            cnt = (
                t.column("cnt").cast(pa.int64())
                if side == 0
                else pa.nulls(n, pa.int64())
            )
            return pa.table(
                {
                    "node_a": t.column(a_col).cast(pa.string()),
                    "node_b": t.column(b_col).cast(pa.string()),
                    "cnt": cnt,
                    _SIDE: pa.array([side] * n, pa.int64()),
                }
            )

        return fn

    arms = [
        wedge_ds.map_batches(
            conform(0, "node_a", "node_b"), batch_format="pyarrow"
        ),
        ed.map_batches(conform(1, "a", "b"), batch_format="pyarrow"),
    ]

    def part_topk(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        w = df[df[_SIDE] == 0]
        e = df[df[_SIDE] == 1]
        if len(w) == 0:
            return empty
        w = w.assign(
            _k=[
                (x.encode("utf-8"), y.encode("utf-8"))
                for x, y in zip(w["node_a"], w["node_b"])
            ]
        )
        agg = w.groupby("_k", as_index=False).agg(
            node_a=("node_a", "first"),
            node_b=("node_b", "first"),
            n_common=("cnt", "sum"),
        )
        ek = set(
            zip(
                (s.encode("utf-8") for s in e["node_a"]),
                (s.encode("utf-8") for s in e["node_b"]),
            )
        )
        keep = [kk not in ek for kk in agg["_k"]]
        agg = agg[keep]
        agg = agg.sort_values(
            ["n_common", "node_a", "node_b"],
            ascending=[False, True, True],
            kind="mergesort",
        ).head(k)
        return pa.table(
            {
                "node_a": pa.array(list(agg["node_a"]), pa.string()),
                "node_b": pa.array(list(agg["node_b"]), pa.string()),
                "n_common": pa.array(
                    [int(x) for x in agg["n_common"]], pa.int64()
                ),
            }
        )

    return (
        exchange(arms, ["node_a", "node_b"], part_topk,
                 batch_format="pyarrow", num_parts=num_parts)
        .sort(
            ["n_common", "node_a", "node_b"],
            descending=[True, False, False],
        )
        .limit(k)
    )


def khop_neighbors(edges_ds, seeds, k: int = 2, *, src: str = "src",
                   dst: str = "dst", directed: bool = False):
    """(node_id, hop) for every node within ``k`` hops of ``seeds``
    (hop = first hop at which the node is reached; seeds are hop 0) —
    the subgraph-retrieval primitive (entity neighborhood for RAG /
    KG-QA lookups).

    Scale contract: each hop is ONE broadcast-filtered pass over the
    edge Dataset (frontier set via ``ray.put``, per-batch set-lookup +
    per-batch dedup), and only the NEW neighbor ids come back to the
    driver — so this is the bounded-neighborhood path: the visited set
    must fit on the driver, which is the definition of a retrieval
    query (k small, neighborhoods bounded). Corpus-wide expansion is
    :func:`connected_components_join`, where labels stay a Dataset.

    The caller should pass a materialized (or cheap-to-recompute)
    ``edges_ds`` — it is scanned once per hop. Early-exits when a hop
    adds nothing. Returns a driver-built single-block Dataset (the
    result is retrieval-sized by contract)."""
    import ray
    import ray.data

    visited: dict = {s: 0 for s in seeds}
    frontier = set(seeds)
    for hop in range(1, k + 1):
        if not frontier:
            break
        ref = ray.put(frozenset(frontier))

        def nbrs(batch: pa.Table, _ref=ref) -> pa.Table:
            fr = ray.get(_ref)
            ss = batch.column(src).to_pylist()
            dd = batch.column(dst).to_pylist()
            out = {y for x, y in zip(ss, dd) if x in fr}
            if not directed:
                out |= {x for x, y in zip(ss, dd) if y in fr}
            # type the output explicitly: pa.array([]) infers null,
            # giving an empty batch a DIFFERENT schema from non-empty
            # ones (the mixed-block-schema hazard class in CLAUDE.md)
            return pa.table({
                "node_id": pa.array(sorted(out),
                                    type=batch.column(dst).type)
            })

        reached = set(
            edges_ds.map_batches(nbrs, batch_format="pyarrow")
            .to_pandas()["node_id"]
        )
        frontier = reached - visited.keys()
        for n in frontier:
            visited[n] = hop

    nodes = sorted(visited)
    return ray.data.from_arrow(pa.table({
        "node_id": pa.array(nodes),
        "hop": pa.array([visited[n] for n in nodes], pa.int64()),
    }))


def khop_neighbors_dataset(edges_ds, seeds, k: int = 2, *,
                           src: str = "src", dst: str = "dst",
                           directed: bool = False):
    """(node_id, hop) within ``k`` hops — the LARGE-frontier variant of
    :func:`khop_neighbors`: frontier and visited stay DATASETS, so no
    node-scaled set ever lands on the driver.

    Per hop: one semi-join of the edge table against the frontier per
    direction (stages/joins.py:equi_join — the inner join against the
    deduped frontier IS the semi-join), a distinct on the candidate
    ids, then an EXACT Bloom anti-join against the visited set
    (joins.py:bloom_anti_join: fixed-size filter + exact verify) to
    keep only first-reach nodes. ~3 exchanges per hop; use the
    driver-side variant for retrieval-sized neighborhoods (it is one
    broadcast-filtered pass per hop) and this one when frontiers are
    corpus-scaled. Early-exits when a hop adds nothing."""
    import ray.data

    from .joins import bloom_anti_join, equi_join

    from .joins import _as_arrow_type

    key_type = None
    for name, typ in zip(edges_ds.schema().names, edges_ds.schema().types):
        if name == src:
            key_type = _as_arrow_type(typ)
    assert key_type is not None, f"no {src!r} column in edges"

    def _seed_table(ids, hop):
        return pa.table({
            "node_id": pa.array(sorted(ids), type=key_type),
            "hop": pa.array([hop] * len(ids), pa.int64()),
        })

    visited = ray.data.from_arrow(_seed_table(set(seeds), 0)).materialize()
    frontier = visited.drop_columns(["hop"]).materialize()

    for hop in range(1, k + 1):
        def fwd_project(batch: pa.Table, _d=dst) -> pa.Table:
            return pa.table({"node_id": pc.cast(batch.column(_d),
                                                key_type)})

        def rev_project(batch: pa.Table, _s=src) -> pa.Table:
            return pa.table({"node_id": pc.cast(batch.column(_s),
                                                key_type)})

        cand = equi_join(
            edges_ds, frontier, on=src, right_on="node_id"
        ).map_batches(fwd_project, batch_format="pyarrow")
        if not directed:
            rev_frontier = frontier.map_batches(
                lambda b: b.rename_columns(["rev_node_id"]),
                batch_format="pyarrow",
            )
            cand = cand.union(
                equi_join(
                    edges_ds, rev_frontier, on=dst,
                    right_on="rev_node_id",
                ).map_batches(rev_project, batch_format="pyarrow")
            )
        cand = cand.materialize()
        if cand.count() == 0:
            break

        # distinct candidates via the coarse-partition idiom (per-batch
        # pre-dedup -> exchange -> in-part drop_duplicates): a
        # direct groupby(node_id) costs ~1 ms of Python PER NODE
        # (CLAUDE.md lore) — fatal inside a per-hop loop on the
        # corpus-scaled frontiers this variant exists for
        def dedup_partial(batch: pa.Table) -> pa.Table:
            vals = sorted(set(batch.column("node_id").to_pylist()))
            return pa.table({"node_id": pa.array(vals, key_type)})

        def in_part_dedup(g: pd.DataFrame) -> pd.DataFrame:
            # bytes key for string ids: pandas' string hashtable
            # truncates at embedded NULs (the canonicalize rule)
            k_ = [
                v.encode("utf-8") if isinstance(v, str) else v
                for v in g["node_id"]
            ]
            return g.assign(_k=k_).drop_duplicates("_k")[
                ["node_id"]
            ].reset_index(drop=True)

        distinct = exchange(
            cand, "node_id", in_part_dedup, combine=dedup_partial
        ).materialize()
        fresh = bloom_anti_join(
            lambda: distinct, visited, on="node_id", right_on="node_id"
        ).materialize()
        if fresh.count() == 0:
            break
        with_hop = fresh.map_batches(
            lambda b, _h=hop: pa.table({
                "node_id": b.column("node_id"),
                "hop": pa.array([_h] * b.num_rows, pa.int64()),
            }),
            batch_format="pyarrow",
        ).materialize()
        visited = visited.union(with_hop).materialize()
        frontier = fresh
    return visited
