"""Experiment 5: search time vs answer size (Synthetic)."""
from repro.eval import harness

KS_TIME = [5, 10, 20]


def test_exp5_search_time_synthetic(benchmark, synthetic_systems, synthetic_targets):
    targets = synthetic_targets[:4]

    def run():
        out = {}
        for name in ("d3l", "tus"):
            out[name] = harness.time_search(synthetic_systems[name], targets, KS_TIME)
        out["aurum"] = harness.time_search(
            synthetic_systems["aurum"], targets, [max(KS_TIME)]
        )
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        {"system": name, **{k: round(v, 3) if isinstance(v, float) else v for k, v in r.items()}}
        for name, rws in out.items()
        for r in rws
    ]
    harness.print_rows(rows, "Experiment 5 — search time (Synthetic, s/target)", save="exp5_search_synthetic")
    # Paper Fig. 6b: D3L search is not slower than TUS (whose query
    # recomputes KB mappings and exact unionability). D3L serves a query from
    # driver copies of its indexes and starts no Spark job, while TUS's query
    # still runs Spark jobs; the assertion allows 15% noise, and the
    # direction (TUS >= D3L) is the shape claim.
    d3l_mean = sum(r["seconds"] for r in out["d3l"]) / len(out["d3l"])
    tus_mean = sum(r["seconds"] for r in out["tus"]) / len(out["tus"])
    assert d3l_mean <= tus_mean * 1.15
    # Aurum's prebuilt-graph query is an order of magnitude cheaper.
    assert out["aurum"][0]["seconds"] < d3l_mean / 5
