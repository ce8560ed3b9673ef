from benchmarks.suite import compare, metrics


def _record(p50, pages=100.0, noisy=False, quick=False, beyond=50):
    return {
        "quick": quick,
        "workloads": {
            "scan_big": {
                "noisy": noisy,
                "e2e": {
                    "stmt_p50_ms": {"value": p50, "unit": "ms", "samples": 100, "beyond": beyond},
                    "pages_per_stmt": {"value": pages, "unit": "count"},
                    "setup_s": {"value": 0.10, "unit": "s"},
                    "durability_lost_rows": {"value": 0, "unit": "count"},
                },
            }
        },
    }


def _verdicts(base, new):
    return {row.metric: row.verdict for row in compare.compare_reports(base, new)}


def test_verdicts_follow_the_bounds():
    bound = next(m.bound for m in metrics.E2E if m.name == "stmt_p50_ms")
    assert _verdicts(_record(10.0), _record(10.0 * (1 + bound / 2)))["stmt_p50_ms"] == "same"
    assert _verdicts(_record(10.0), _record(10.0 * (1 + bound * 2)))["stmt_p50_ms"] == "worse"
    assert _verdicts(_record(10.0), _record(10.0 * (1 - bound * 2)))["stmt_p50_ms"] == "better"


def test_noisy_quick_and_thin_samples_are_unresolved():
    assert _verdicts(_record(10.0), _record(20.0, noisy=True))["stmt_p50_ms"] == "unresolved"
    assert _verdicts(_record(10.0, quick=True), _record(20.0))["stmt_p50_ms"] == "unresolved"
    assert _verdicts(_record(10.0), _record(20.0, beyond=3))["stmt_p50_ms"] == "unresolved"


def test_zero_based_and_floored_metrics():
    base, new = _record(10.0), _record(10.0)
    new["workloads"]["scan_big"]["e2e"]["durability_lost_rows"]["value"] = 1
    new["workloads"]["scan_big"]["e2e"]["setup_s"]["value"] = 0.14  # +40% but < 0.05 s
    verdicts = _verdicts(base, new)
    assert verdicts["durability_lost_rows"] == "worse"
    assert verdicts["setup_s"] == "same"


def test_rows_carry_base_and_ratio():
    (row,) = [r for r in compare.compare_reports(_record(10.0), _record(12.0)) if r.metric == "stmt_p50_ms"]
    assert (row.base, row.new, row.ratio) == (10.0, 12.0, 1.2)
    assert "stmt_p50_ms" in compare.format_rows([row])
