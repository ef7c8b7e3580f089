import json
from pathlib import Path

import pytest

import apcert.cli
import apcert.subsetsum_ap
import apcert.sumset_ap
from apcert.augment import ApWitness
from apcert.cli import main, verify_terms
from apcert.core import CompactSolution, InternalContract, normalize
from apcert.sumset_ap import ap_in_kfold_sumset
from oracle import block_plus_sparse, merge_counts


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "a.txt").write_text(
        "# sumset base set\n0 1 65 121 138 262 345 583 610 777 901\n"
    )
    (tmp_path / "b.txt").write_text(" ".join(map(str, range(1, 3001))) + "\n")
    (tmp_path / "u.txt").write_text("3 5\n")
    (tmp_path / "d.txt").write_text(" ".join(map(str, range(1, 501))) + "\n")
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


A_VALUES = [0, 1, 65, 121, 138, 262, 345, 583, 610, 777, 901]
M_K = ["--m", "1000", "--k", "101"]
ELL = ["--ell", "300"]
# error column of an exit-code row whose argv argparse rejects
USAGE = "usage"
# error column of an exit-code row whose build asks for more memory than any
# 64-bit address space holds, so the allocation fails at once
OOM = "out-of-memory"
# error column of an exit-code row whose build runs with residue_ladder
# failing one of its contracts, an internal fault that no input causes
INTERNAL = "internal-error"


def assert_usage_error(captured, detail):
    """argparse's own message, on stderr only; the caller asserts exit 1,
    since 2 means a certificate failure."""
    assert captured.out == "" and captured.err.startswith("usage: ")
    assert captured.err.endswith(f"error: {detail}\n")


def assert_out_of_memory(captured):
    """One named line on stderr, no traceback and nothing on stdout."""
    assert captured.out == "" and captured.err == "error: out of memory\n"


def _ladder_breaks_a_contract(*args):
    raise InternalContract("residue gcd must properly divide d")


def assert_internal_error(captured):
    """One line on stderr naming the fault, even under --json, and nothing
    on stdout; the exit code, 2, is the one of a failed certificate."""
    assert captured.out == ""
    assert captured.err == "internal error: residue gcd must properly divide d\n"


@pytest.mark.parametrize("length, count, indices", [
    (10, 0, []),
    (10, 1, [0]),
    (10, 2, [0, 10]),
    (10, 3, [0, 5, 10]),
    (10, 11, list(range(11))),
    (10, 50, list(range(11))),
    (0, 1, [0]),
])
def test_sample_indices(length, count, indices):
    assert apcert.cli._sample_indices(length, count) == indices


@pytest.mark.parametrize("command", ["ap-sumset", "ap-subsetsum", "unbounded", "dense",
                                     "verify"])
def test_help_exits_zero(capsys, command):
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: ")


class TestApSumset:
    def test_verify_all(self, workdir, capsys):
        code, out = run(
            capsys, "ap-sumset", "--input", workdir / "a.txt",
            "--m", "1000", "--k", "101", "--verify-all", "--seed", "7", "--json",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["schema"] == 1
        assert rep["ap"]["length"] == 1000 and rep["ap"]["diff"] == 1
        assert rep["verification"] == {"checked": 1001, "passed": 1001}

    def test_missing_file(self, workdir, capsys):
        code = main(["ap-sumset", "--input", str(workdir / "nope.txt"), "--m", "5", "--k", "3"])
        assert code == 1

    def test_precondition_exit(self, workdir, capsys):
        code, out = run(
            capsys, "ap-sumset", "--input", workdir / "a.txt",
            "--m", "100000", "--k", "2", "--json",
        )
        assert code == 1
        assert json.loads(out)["error"] == "precondition"

    def test_reproducible_bytes(self, workdir, capsys):
        args = ["ap-sumset", "--input", workdir / "a.txt", "--m", "1000",
                "--k", "101", "--sample", "7", "--seed", "42", "--json"]
        _, out1 = run(capsys, *args)
        _, out2 = run(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("extra, queries", [([], 9), (["--verify-all"], 1001)],
                             ids=["sample", "verify-all"])
    def test_one_query_per_term(self, workdir, capsys, monkeypatch, extra, queries):
        calls = []
        query = ApWitness.query

        def spy(self, j, rng):
            calls.append(j)
            return query(self, j, rng)

        monkeypatch.setattr(ApWitness, "query", spy)
        code, out = run(capsys, "ap-sumset", "--input", workdir / "a.txt", "--m", "1000",
                        "--k", "101", "--sample", "9", "--seed", "7", "--json", *extra)
        assert code == 0
        assert len(calls) == queries == len(set(calls))
        assert len(json.loads(out)["certificates"]) == 9

    def test_input_is_normalized_once(self, workdir, capsys, monkeypatch):
        calls = []

        def spy(raw):
            calls.append(len(raw))
            return normalize(raw)

        monkeypatch.setattr(apcert.cli, "normalize", spy)
        monkeypatch.setattr(apcert.sumset_ap, "normalize", spy)
        code, _ = run(capsys, "ap-sumset", "--input", workdir / "a.txt", "--m", "1000",
                      "--k", "101", "--sample", "3", "--json")
        assert code == 0 and calls == [11]

    def test_seed_defaults_to_zero(self, workdir, capsys):
        args = ["ap-sumset", "--input", workdir / "a.txt", *M_K, "--sample", "3", "--json"]
        _, out = run(capsys, *args)
        assert json.loads(out)["seed"] == 0
        assert run(capsys, *args, "--seed", "0")[1] == out

    @pytest.mark.parametrize("values, flags, code, error, detail", [
        (A_VALUES, M_K, 0, None, None),
        ([0, 1, -3, 65], M_K, 1, "nonnegative-input", "got -3"),
        ([0, 1, 2**62 + 1], M_K, 1, "element-cap", f"{2**62 + 1} > 2^62"),
        ([0, 1, 2**63, -2], M_K, 1, "element-cap", f"{2**63} > 2^62"),
        (["0", "1", "x2"], M_K, 1, "malformed-input", "line 1: 'x2' is not an integer"),
        (["0", "1", "1_000"], M_K, 1, "malformed-input", "line 1: '1_000' is not an integer"),
        (["0", "1", "\u0663"], M_K, 1, "malformed-input", "line 1: '\u0663' is not an integer"),
        (["0", "1", "\uff11\uff12"], M_K, 1, "malformed-input",
         "line 1: '\uff11\uff12' is not an integer"),
        (["0", "1\u00a02"], M_K, 1, "malformed-input", "line 1: '1\\xa02' is not an integer"),
        (["0", "1\u20032"], M_K, 1, "malformed-input", "line 1: '1\\u20032' is not an integer"),
        (["0", "1\x1c2"], M_K, 1, "malformed-input", "line 1: '1\\x1c2' is not an integer"),
        (["0\x0c1\n2\nx"], M_K, 1, "malformed-input", "line 3: 'x' is not an integer"),
        (A_VALUES, M_K + ["--workers", "2"], 1, USAGE, "unrecognized arguments: --workers 2"),
        (A_VALUES, ["--k", "101"], 1, USAGE, "the following arguments are required: --m"),
        ([0, 1, 10**18], ["--m", str(10**18), "--k", str(34 * 10**16)], 1, OOM, None),
    ], ids=["certified", "negative", "over-cap", "first-fault-wins", "malformed-input",
            "underscore-digits", "arabic-indic-digit", "fullwidth-digits",
            "no-break-space", "em-space", "file-separator", "form-feed-is-no-line-break",
            "workers-option", "missing-m", "out-of-memory"])
    def test_exit_codes(self, tmp_path, capsys, values, flags, code, error, detail):
        inp = tmp_path / "in.txt"
        inp.write_text(" ".join(map(str, values)) + "\n", encoding="utf-8")
        got = main(["ap-sumset", "--input", str(inp), *flags, "--seed", "0", "--json"])
        captured = capsys.readouterr()
        assert got == code
        if error == USAGE:
            return assert_usage_error(captured, detail)
        if error == OOM:
            return assert_out_of_memory(captured)
        rep = json.loads(captured.out)
        assert rep.get("name") == error and rep.get("detail") == detail
        assert ("ap" in rep) == (error is None)


class TestApSubsetsum:
    def test_tuned_toy(self, workdir, capsys):
        code, out = run(
            capsys, "ap-subsetsum", "--input", workdir / "b.txt",
            "--ell", "60", "--profile", "tuned", "--seed", "3",
            "--verify-all", "--json",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["verification"]["checked"] == 61
        assert rep["verification"]["passed"] == 61

    def test_paper_profile_exits_one(self, workdir, capsys):
        code, out = run(
            capsys, "ap-subsetsum", "--input", workdir / "b.txt",
            "--ell", "3000", "--profile", "paper", "--json",
        )
        assert code == 1
        rep = json.loads(out)
        assert rep["error"] == "precondition" and rep["name"]

    def test_reproducible_bytes(self, workdir, capsys):
        args = ["ap-subsetsum", "--input", workdir / "b.txt", "--ell", "60",
                "--seed", "5", "--sample", "9", "--json"]
        _, out1 = run(capsys, *args)
        _, out2 = run(capsys, *args)
        assert out1 == out2


    @pytest.mark.parametrize("values, flags, code, error, detail", [
        (range(1, 301), ELL, 0, None, None),
        (range(0, 301), ELL, 1, "positive-elements", "subset-sum input must be within [1, m]"),
        ([1, 2, -1, 3], ELL, 1, "nonnegative-input", "got -1"),
        ([1, 2, 2**62 + 1], ELL, 1, "element-cap", f"{2**62 + 1} > 2^62"),
        (range(1, 301), ELL + ["--workers", "2"], 1, USAGE,
         "unrecognized arguments: --workers 2"),
        (range(1, 301), [], 1, USAGE, "the following arguments are required: --ell"),
        (range(2, 2000, 3), ["--ell", "1"], 1, "gaps-within-bound", "gaps up to 3 vs bound 1"),
        # one augmentation round of this build builds a residue ladder
        ([*range(2, 601, 2), *range(601, 900, 2)], ["--ell", "899"], 2, INTERNAL, None),
    ], ids=["certified", "zero", "negative", "over-cap", "workers-option", "missing-ell",
            "gap-above-bound", "internal-contract"])
    def test_exit_codes(self, tmp_path, capsys, monkeypatch, values, flags, code, error,
                        detail):
        inp = tmp_path / "in.txt"
        inp.write_text(" ".join(map(str, values)) + "\n")
        if error == INTERNAL:
            monkeypatch.setattr(apcert.subsetsum_ap, "residue_ladder", _ladder_breaks_a_contract)
        got = main(["ap-subsetsum", "--input", str(inp), *flags, "--seed", "0", "--json"])
        captured = capsys.readouterr()
        assert got == code
        if error == USAGE:
            return assert_usage_error(captured, detail)
        if error == INTERNAL:
            return assert_internal_error(captured)
        rep = json.loads(captured.out)
        assert rep.get("name") == error and rep.get("detail") == detail
        assert ("ap" in rep) == (error is None)


class TestUnbounded:
    def test_pair(self, workdir, capsys):
        code, out = run(capsys, "unbounded", "--input", workdir / "u.txt",
                        "--target", "5000", "--json")
        assert code == 0
        rep = json.loads(out)
        assert sum(a * x for a, x in rep["x"]) == 5000

    def test_below_threshold(self, workdir, capsys):
        code, _ = run(capsys, "unbounded", "--input", workdir / "u.txt",
                      "--target", "10", "--json")
        assert code == 1

    @pytest.mark.parametrize("values, target, code, error", [
        ([3, 5], 100000, 0, None),
        ([3, 5], 1000, 1, "target-above-threshold"),
        ([2, 4], 100000, 1, "gcd-one"),
        ([5, 3], 100000, 1, "strictly-increasing-positive"),
        ([3, 3, 5], 100000, 1, "strictly-increasing-positive"),
        ([7], 100000, 1, "at-least-two-values"),
        (["3", "x5"], 100000, 1, "malformed-input"),
        ([1, 10**18 - 1, 10**18], 10**19, 1, OOM),
        ([2, 3, 2**62], 10**22, 0, None),
        ([2, 3, 2**62 + 1], 10**22, 1, "element-cap"),
    ], ids=["solved", "below-threshold", "gcd", "decreasing", "repeated",
            "one-value", "malformed-input", "out-of-memory", "largest-at-cap",
            "largest-above-cap"])
    def test_exit_codes(self, tmp_path, capsys, values, target, code, error):
        inp = tmp_path / "in.txt"
        inp.write_text(" ".join(map(str, values)) + "\n")
        got = main(["unbounded", "--input", str(inp), "--target", str(target),
                    "--seed", "0", "--json"])
        captured = capsys.readouterr()
        assert got == code
        if error == OOM:
            return assert_out_of_memory(captured)
        rep = json.loads(captured.out)
        assert rep.get("name") == error
        assert ("x" in rep) == (error is None)
        if error is None:
            assert [a for a, _ in rep["x"]] == values
            assert all(x >= 0 for _, x in rep["x"])
            assert sum(a * x for a, x in rep["x"]) == target

    def test_non_positive_value_named(self, tmp_path, capsys):
        inp = tmp_path / "in.txt"
        inp.write_text("0 3 5\n")
        got, out = run(capsys, "unbounded", "--input", inp, "--target", 100000, "--json")
        assert got == 1
        rep = json.loads(out)
        assert rep["name"] == "strictly-increasing-positive"
        assert rep["detail"] == "0 is not positive"


class TestDense:
    def test_yes_with_solution(self, workdir, capsys):
        code, out = run(capsys, "dense", "--input", workdir / "d.txt",
                        "--target", "30000", "--profile", "tuned", "--seed", "2", "--json")
        assert code == 0
        rep = json.loads(out)
        assert rep["decision"] is True
        assert sum(rep["solution"]) == 30000

    def test_no_exit_three(self, tmp_path, capsys):
        evens = tmp_path / "e.txt"
        evens.write_text(" ".join(str(2 * x) for x in range(1, 441)) + "\n")
        # odd target inside the region has an unreachable residue
        from apcert.dense import build_rpg
        from apcert.profiles import TUNED

        decomp = build_rpg([2 * x for x in range(1, 441)], TUNED, seed=0)
        lo, hi = decomp.region()
        t = lo if lo % 2 == 1 else lo + 1
        code, out = run(capsys, "dense", "--input", evens, "--target", str(t),
                        "--profile", "tuned", "--seed", "0", "--json")
        assert code == 3
        assert json.loads(out)["decision"] is False

    def test_reproducible_bytes(self, workdir, capsys):
        args = ["dense", "--input", workdir / "d.txt", "--target", "30000",
                "--seed", "2", "--json"]
        _, out1 = run(capsys, *args)
        _, out2 = run(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("values, target, code, error", [
        (range(1, 501), 30000, 0, None),
        (range(2, 881, 2), 80001, 3, None),
        (range(1, 501), 21041, 1, "target-out-of-region"),
        ([1, 10**6], 10, 1, "delta-dense"),
        ([4, 4, 5, 6], 10, 1, "set-input"),
        (["1", "2", "x3"], 10, 1, "malformed-input"),
        (block_plus_sparse(0), 4 * 10**8, 1, "region-nonempty"),
    ], ids=["yes", "no", "out-of-region", "not-dense", "duplicates", "malformed-input",
            "empty-region"])
    def test_exit_codes(self, tmp_path, capsys, values, target, code, error):
        inp = tmp_path / "in.txt"
        inp.write_text(" ".join(map(str, values)) + "\n")
        got, out = run(capsys, "dense", "--input", inp, "--target", target,
                       "--seed", "0", "--json")
        assert got == code
        rep = json.loads(out)
        assert rep.get("name") == error
        assert ("decision" in rep) == (error is None)


def _bump_first_count(rep):
    rep["certificates"][0]["parts"][0][1] += 1


def _resize_coreset(rep):
    """Keep the report's coreset_size claim true after an edit of its
    coreset, so only the edit itself can fail the report."""
    rep["coreset_size"] = len(rep["coreset"])


def _add_foreign_coreset_value(rep):
    rep["coreset"].append(10**6)
    _resize_coreset(rep)


def _coreset_value_before(value):
    """A value put in front of the coreset; one outside the element range is
    a value outside the input like any other, not an input error."""
    def edit(rep):
        rep["coreset"].insert(0, value)
        _resize_coreset(rep)
    return edit


def _repeat_first_coreset_value(rep):
    # a set of the coreset would drop the copy, so the claimed size must
    # count it and every certificate still be a subset of the coreset
    rep["coreset"].append(rep["coreset"][0])
    _resize_coreset(rep)


def _swap_last_value_out_of_coreset(rep):
    """The last part of the first certificate becomes a value above the
    coreset (so the parts stay in order); its target no longer matches."""
    rep["certificates"][0]["parts"][-1][0] = max(rep["coreset"]) + 1


def _duplicate_first_part(rep):
    parts = rep["certificates"][0]["parts"]
    parts.insert(1, list(parts[0]))


def _index_past_the_ap(rep):
    rep["certificates"][-1]["index"] = rep["ap"]["length"] + 1


def _zero_diff_first_certificate(rep):
    # certificate 0 claims ap.start whatever the diff, so it alone would pass
    rep["ap"]["diff"] = 0
    del rep["certificates"][1:]


def _negative_diff_and_length(rep):
    # no certificate is left to fail against the progression
    rep["ap"].update(diff=-5, length=-1)
    rep["certificates"] = []


def _zeros_under_their_own_budget(rep):
    # 10^6 extra zeros under a budget of 10^9 still sum to the target
    cert = rep["certificates"][0]
    cert["parts"][0][1] += 10**6
    cert["fold_budget"] = 10**9


def _budget_past_332k(rep):
    # 20,250 summands for term 250, past 332k = 15,936, under a budget the
    # report raised everywhere; only the bound of 332k refuses it
    for holder in (rep, *rep["certificates"]):
        holder["fold_budget"] = 10**6
    rep["certificates"][1]["parts"] = [[0, 20000], [1, 250]]


def _budget_zero(rep):
    rep["fold_budget"] = 0


def _k_zero(rep):
    rep["k"] = 0


def _m_not_the_ap_length(rep):
    rep["m"] = 10**6


def _k_eff_raised(rep):
    # 332·k_eff would allow a budget far above what the input needs
    rep["k_eff"] = 10**6


def _k_below_k_eff(rep):
    # k_eff = ceil(2001/42) = 48 stays, and the budget 15,360 is under 332·47
    rep["k"] = 47


def _k_eff_not_an_integer(rep):
    rep["k_eff"] = "48"


# (edit of the golden ap-sumset-r1 report, exit code, the failures: one
# reason that every certificate fails with, or the list itself; or for exit 1
# the named precondition)
FOLD_BUDGET_ROWS = [
    (_zeros_under_their_own_budget, 2, [[0, "fold-budget-mismatch"]]),
    (_budget_past_332k, 2, "fold-budget-above-claim"),
    (_budget_zero, 1, "malformed-report"),
    (_k_zero, 1, "malformed-report"),
    (_m_not_the_ap_length, 2, "ap-not-as-claimed"),
    (_k_eff_raised, 2, "k-eff-not-as-claimed"),
    (_k_below_k_eff, 2, "k-eff-not-as-claimed"),
    (_k_eff_not_an_integer, 1, "malformed-report"),
]


class TestVerifyCommand:
    def test_round_trip(self, workdir, capsys, tmp_path):
        _, out = run(capsys, "ap-sumset", "--input", workdir / "a.txt",
                     "--m", "1000", "--k", "101", "--sample", "11",
                     "--seed", "3", "--json")
        report = tmp_path / "r.json"
        report.write_text(out)
        code, vout = run(capsys, "verify", "--report", report,
                         "--input", workdir / "a.txt", "--json")
        assert code == 0
        rep = json.loads(vout)
        assert rep["passed"] == rep["checked"] == 11

    def test_tampered_report_fails(self, workdir, capsys, tmp_path):
        _, out = run(capsys, "ap-sumset", "--input", workdir / "a.txt",
                     "--m", "1000", "--k", "101", "--sample", "3",
                     "--seed", "3", "--json")
        rep = json.loads(out)
        rep["certificates"][0]["target"] += 1
        report = tmp_path / "bad.json"
        report.write_text(json.dumps(rep))
        code, _ = run(capsys, "verify", "--report", report, "--input", workdir / "a.txt")
        assert code == 2

    @pytest.mark.parametrize("edit, input_name, code, name", [
        (None, "b.txt", 0, None),
        (_bump_first_count, "b.txt", 2, "count-not-one"),
        (_add_foreign_coreset_value, "b.txt", 2, "coreset-not-in-input"),
        (_coreset_value_before(-5), "b.txt", 2, "coreset-not-in-input"),
        (_coreset_value_before(2**63), "b.txt", 2, "coreset-not-in-input"),
        (lambda rep: rep.update(ell=rep["ell"] + 1), "b.txt", 2, "ap-not-as-claimed"),
        (lambda rep: rep.update(coreset_size=1), "b.txt", 2, "coreset-size-not-as-claimed"),
        (_repeat_first_coreset_value, "b.txt", 2, "coreset-repeats-a-value"),
        (lambda rep: rep.update(coreset_size=str(rep["coreset_size"])), "b.txt", 1,
         "malformed-report"),
        (_swap_last_value_out_of_coreset, "b.txt", 2, "value-not-in-base"),
        (_duplicate_first_part, "b.txt", 2, "parts-not-sorted-distinct"),
        (_index_past_the_ap, "b.txt", 2, "index-out-of-range"),
        ("{not json", "b.txt", 1, "malformed-report"),
        (lambda rep: rep.update(command="dense"), "b.txt", 1, "malformed-report"),
        (lambda rep: rep["ap"].update(length=None), "b.txt", 1, "malformed-report"),
        (_zero_diff_first_certificate, "b.txt", 1, "malformed-report"),
        (_negative_diff_and_length, "b.txt", 1, "malformed-report"),
        (None, "missing.txt", 1, None),
    ], ids=["valid", "tampered-count", "coreset-outside-input", "negative-coreset-value",
            "coreset-value-past-the-cap", "ell-not-the-ap-length", "coreset-size-not-the-coreset",
            "repeated-coreset-value", "non-integer-coreset-size", "part-outside-coreset",
            "duplicated-part", "index-past-the-ap", "not-json", "certificates-in-dense",
            "non-integer-ap-length", "zero-ap-diff", "negative-ap-length", "missing-input"])
    def test_exit_codes(self, workdir, capsys, tmp_path, edit, input_name, code, name):
        _, out = run(capsys, "ap-subsetsum", "--input", workdir / "b.txt", "--ell", "60",
                     "--seed", "3", "--sample", "4", "--json")
        if isinstance(edit, str):
            text = edit
        else:
            rep = json.loads(out)
            if edit is not None:
                edit(rep)
            text = json.dumps(rep)
        report = tmp_path / "edited.json"
        report.write_text(text)
        got = main(["verify", "--report", str(report), "--input", str(workdir / input_name),
                    "--json"])
        captured = capsys.readouterr()
        assert got == code
        if code == 2:
            failures = json.loads(captured.out)["failures"]
            assert failures and {r for _, r in failures} == {name}
        elif name is not None:
            rep = json.loads(captured.out)
            assert rep["error"] == "precondition" and rep["name"] == name
        elif code == 1:
            assert captured.out == "" and captured.err.startswith("error: ")
        else:
            rep = json.loads(captured.out)
            assert rep["passed"] == rep["checked"] == 4

    def _verify(self, capsys, tmp_path, rep, inp):
        report = tmp_path / "edited.json"
        report.write_text(json.dumps(rep))
        code, out = run(capsys, "verify", "--report", report, "--input", inp, "--json")
        return code, json.loads(out)

    def _sumset_report(self, workdir, capsys):
        _, out = run(capsys, "ap-sumset", "--input", workdir / "a.txt",
                     "--m", "1000", "--k", "101", "--sample", "3",
                     "--seed", "3", "--json")
        return json.loads(out)

    @pytest.mark.parametrize("edit", [
        lambda c: c.pop("parts"),
        lambda c: c.pop("index"),
        lambda c: c.update(target=str(c["target"])),
        lambda c: c.update(fold_budget=1.5),
        lambda c: c.update(parts=[[0, 1, 2]]),
        lambda c: c.update(parts=7),
    ], ids=["missing-parts", "missing-index", "string-target", "float-budget",
            "three-field-part", "scalar-parts"])
    def test_malformed_certificate_is_a_named_error(self, workdir, capsys, tmp_path, edit):
        rep = self._sumset_report(workdir, capsys)
        edit(rep["certificates"][1])
        code, out = self._verify(capsys, tmp_path, rep, workdir / "a.txt")
        assert code == 1
        assert out["error"] == "precondition" and out["name"] == "malformed-report"

    @pytest.mark.parametrize("content", [b"{\"certificates\": [", b"\xff\xfe"],
                             ids=["truncated-json", "not-utf8"])
    def test_unreadable_report_is_a_named_error(self, workdir, capsys, tmp_path, content):
        report = tmp_path / "bad.json"
        report.write_bytes(content)
        code, out = run(capsys, "verify", "--report", report, "--input", workdir / "a.txt",
                        "--json")
        assert code == 1
        rep = json.loads(out)
        assert rep["error"] == "precondition" and rep["name"] == "malformed-report"

    @pytest.mark.parametrize("tamper, reason", [
        # one more part, 2000, which is not in the base; the target follows it
        (lambda s: CompactSolution(s.parts + ((2000, 1),), s.target + 2000, s.fold_budget),
         "value-not-in-base"),
        # one more copy of 1: a valid certificate of the next integer, not of the term
        (lambda s: CompactSolution.from_counts(merge_counts(s.parts, [(1, 1)]), s.target + 1,
                                               s.fold_budget),
         "target-mismatch"),
    ], ids=["part-outside-base", "shifted-target"])
    def test_build_and_verify_agree_on_a_tampered_certificate(
        self, workdir, capsys, tmp_path, monkeypatch, tamper, reason
    ):
        query = ApWitness.query
        monkeypatch.setattr(ApWitness, "query", lambda self, j, rng: tamper(query(self, j, rng)))
        code, out = run(capsys, "ap-sumset", "--input", workdir / "a.txt", "--m", "1000",
                        "--k", "101", "--sample", "5", "--seed", "3", "--json")
        rep = json.loads(out)
        assert code == 2 and rep["verification"] == {"checked": 5, "passed": 0}
        base = normalize([0, 1, 65, 121, 138, 262, 345, 583, 610, 777, 901])[0]
        res = ap_in_kfold_sumset(base, 1000, 101)
        indices = [c["index"] for c in rep["certificates"]]
        built = verify_terms(res.witness, base, 3, indices, indices)
        assert built["certificates"] == rep["certificates"]
        code, out = self._verify(capsys, tmp_path, rep, workdir / "a.txt")
        assert code == 2
        assert out["failures"] == [[j, r] for j, r in built["failures"]]
        assert {r for _, r in out["failures"]} == {reason}

    @pytest.mark.parametrize("period", [1, 3], ids=["every-term", "every-third-term"])
    def test_failure_list_is_the_first_sixteen_in_index_order(self, monkeypatch, period):
        query = ApWitness.query

        def tamper(self, j, rng):
            sol = query(self, j, rng)
            if j % period:
                return sol
            return CompactSolution.from_counts(merge_counts(sol.parts, [(1, 1)]),
                                               sol.target + 1, sol.fold_budget)

        monkeypatch.setattr(ApWitness, "query", tamper)
        base = normalize(A_VALUES)[0]
        res = ap_in_kfold_sumset(base, 1000, 101)
        indices = list(range(0, 1001, 10))
        got = verify_terms(res.witness, base, 3, indices, indices[::25])
        failing = [j for j in indices if j % period == 0]
        assert len(failing) > 16
        assert got["checked"] == 101 and got["passed"] == 101 - len(failing)
        assert got["failures"] == [(j, "target-mismatch") for j in failing[:16]]
        assert [c["index"] for c in got["certificates"]] == indices[::25]

    def test_malformed_report_shapes(self, workdir, capsys, tmp_path):
        rep = self._sumset_report(workdir, capsys)
        no_ap = {k: v for k, v in rep.items() if k != "ap"}
        for bad in ([rep], dict(rep, certificates=5), dict(rep, fold_budget=None),
                    dict(rep, ap={"start": 0}), no_ap):
            code, out = self._verify(capsys, tmp_path, bad, workdir / "a.txt")
            assert code == 1 and out["name"] == "malformed-report"

    def test_valid_certificate_past_the_ap_is_refused(self, capsys, tmp_path):
        # one count moved from 0 to 1 certifies 2001, a sum in the sumset,
        # but the term after the last of the report's progression
        golden = Path(__file__).parent / "golden"
        rep = json.loads((golden / "cli" / "ap-sumset-r1.stdout").read_text())
        cert = rep["certificates"][-1]
        assert cert["index"] == rep["ap"]["length"] == 2000
        assert cert["parts"] == [[0, 1959], [1, 15], [522, 1], [1463, 1]]
        cert.update(index=2001, target=2001, parts=[[0, 1958], [1, 16], [522, 1], [1463, 1]])
        code, out = self._verify(capsys, tmp_path, rep, golden / "inputs" / "r1.txt")
        assert code == 2 and out["failures"] == [[2001, "index-out-of-range"]]

    def test_fold_budget_bound_to_the_report(self, capsys, tmp_path):
        golden = Path(__file__).parent / "golden"
        report = json.loads((golden / "cli" / "ap-sumset-r1.stdout").read_text())
        assert (report["k"], report["k_eff"], report["m"], report["fold_budget"]) == (
            48, 48, 2000, 15360)
        indices = [c["index"] for c in report["certificates"]]
        for edit, code, want in FOLD_BUDGET_ROWS:
            rep = json.loads(json.dumps(report))
            edit(rep)
            got, out = self._verify(capsys, tmp_path, rep, golden / "inputs" / "r1.txt")
            assert got == code, edit.__name__
            if code == 1:
                assert out["name"] == want, edit.__name__
            elif isinstance(want, str):  # a claim of the report fails every certificate
                assert out["failures"] == [[j, want] for j in indices], edit.__name__
            else:
                assert out["failures"] == want, edit.__name__

    def test_k_eff_claim_against_an_empty_input(self, capsys, tmp_path):
        # no n gives ceil((m+1)/n), so the claim fails rather than divides by 0
        golden = Path(__file__).parent / "golden"
        report = golden / "cli" / "ap-sumset-r1.stdout"
        (tmp_path / "empty.txt").write_text("")
        code, out = run(capsys, "verify", "--report", report, "--input",
                        tmp_path / "empty.txt", "--json")
        out = json.loads(out)
        assert code == 2 and out["checked"] == 9
        assert {r for _, r in out["failures"]} == {"k-eff-not-as-claimed"}

    @pytest.mark.parametrize("case", ["ap-sumset-r1", "ap-sumset-m61015",
                                      "ap-subsetsum-consecutive", "ap-subsetsum-gcd2",
                                      "ap-subsetsum-ladder"])
    def test_golden_build_reports_pass(self, capsys, case):
        # the claim checks refuse no honest report
        golden = Path(__file__).parent / "golden"
        argv = json.loads((golden / "cli" / f"{case}.json").read_text())["argv"]
        inp = golden / argv[argv.index("--input") + 1]
        code, out = run(capsys, "verify", "--report", golden / "cli" / f"{case}.stdout",
                        "--input", inp, "--json")
        rep = json.loads(out)
        assert code == 0 and rep["passed"] == rep["checked"] == 9

    def test_golden_coreset_with_a_repeated_value(self, capsys, tmp_path):
        golden = Path(__file__).parent / "golden"
        rep = json.loads((golden / "cli" / "ap-subsetsum-consecutive.stdout").read_text())
        assert rep["coreset_size"] == len(rep["coreset"]) == 94
        _repeat_first_coreset_value(rep)
        code, out = self._verify(capsys, tmp_path, rep, golden / "inputs" / "consecutive300.txt")
        assert code == 2 and out["checked"] == 9
        assert out["failures"] == [[c["index"], "coreset-repeats-a-value"]
                                   for c in rep["certificates"]]

    def test_subsetsum_report_claims(self, workdir, capsys, tmp_path):
        _, out = run(capsys, "ap-subsetsum", "--input", workdir / "b.txt", "--ell", "60",
                     "--seed", "3", "--sample", "4", "--json")
        rep = json.loads(out)
        inp = workdir / "b.txt"
        code, ok = self._verify(capsys, tmp_path, rep, inp)
        assert code == 0 and ok["passed"] == ok["checked"] == 4

        budget = json.loads(out)
        budget["certificates"][2]["fold_budget"] = 5
        code, res = self._verify(capsys, tmp_path, budget, inp)
        assert code == 2 and res["failures"] == [[budget["certificates"][2]["index"],
                                                  "fold-budget-mismatch"]]

        outside = json.loads(out)
        used = outside["certificates"][-1]["parts"][0][0]
        outside["coreset"].remove(used)
        _resize_coreset(outside)
        code, res = self._verify(capsys, tmp_path, outside, inp)
        assert code == 2
        assert [outside["certificates"][-1]["index"], "value-not-in-base"] in res["failures"]

        foreign = json.loads(out)
        foreign["coreset"].append(10**6)
        _resize_coreset(foreign)
        code, res = self._verify(capsys, tmp_path, foreign, inp)
        assert code == 2 and res["passed"] == 0
        assert {r for _, r in res["failures"]} == {"coreset-not-in-input"}
