"""Acceptance gate: every verification suite at full scale, one PASS or
FAIL line per criterion (run with -s to see them as they complete).  Each
suite's CSV must also match its golden file byte for byte: the goldens in
tests/golden were written at the default seed and full scale, so any change
in what a suite computes shows up here."""

import os

from msg_lab.suites import (suite_approx_centralize,
                            suite_centralizer_factors,
                            suite_centralizer_structure, suite_class_sizes,
                            suite_equivalence_trend,
                            suite_fingerprint_family, suite_geodesics,
                            suite_metric_axioms, suite_niceblock,
                            suite_sl_projection, suite_split_prep)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _report(result, runtime_cap=None):
    status = "PASS" if result.ok else "FAIL"
    print("%s: %s (%.1fs)" % (status, result.summary, result.elapsed))
    for detail in result.details:
        print("    " + detail)
    assert result.ok, "%s failed: %s" % (result.name, result.details)
    if runtime_cap is not None:
        assert result.elapsed < runtime_cap, (
            "%s took %.1fs, cap is %ds"
            % (result.name, result.elapsed, runtime_cap))
    with open(os.path.join(GOLDEN_DIR, result.name + ".csv"), "rb") as handle:
        golden = handle.read()
    assert result.csv_text.encode("utf-8") == golden, (
        "%s CSV differs from tests/golden/%s.csv" % (result.name, result.name))
    return result


def test_split_preparation_exact_on_500_per_field():
    _report(suite_split_prep(), runtime_cap=60)


def test_approximate_centralizing_bound_on_500_instances():
    _report(suite_approx_centralize())


def test_centralizer_factor_count_and_brute_force_orders():
    _report(suite_centralizer_factors())


def test_niceblock_certificates_all_groups_and_sizes():
    _report(suite_niceblock())


def test_determinant_projection_and_commutator_witnesses():
    _report(suite_sl_projection())


def test_metric_axioms_all_three_metrics():
    _report(suite_metric_axioms())


def test_class_size_formula_vs_brute_force():
    _report(suite_class_sizes())


def test_permutation_centralizer_orders_and_fingerprints():
    _report(suite_centralizer_structure())


def test_geodesic_chains_overshoot_accounting():
    _report(suite_geodesics())


def test_equivalence_trend_medians_decrease():
    _report(suite_equivalence_trend(), runtime_cap=120)


def test_fingerprint_family_dichotomy():
    _report(suite_fingerprint_family())
