from apcert.profiles import PAPER, PROFILES, TUNED


def test_lookup():
    assert PROFILES == {"paper": PAPER, "tuned": TUNED}


def test_paper_constants_verbatim():
    assert PAPER.enforce_caps
    assert PAPER.pair_cap == 1000
    assert PAPER.window_div == 4000
    assert PAPER.window_lo_div == 8000
    assert PAPER.min_len_factor == 16000
    assert PAPER.case1_pair_factor == 20000
    assert PAPER.coreset_factor == 30000
    assert PAPER.length_cap_factor == 5 * 10**8
    assert (PAPER.alpha_c, PAPER.delta_c, PAPER.lambda_c) == (42480, 1699200, 169920)


def test_tuned_is_scaled_down_and_advisory():
    assert not TUNED.enforce_caps
    for field in ("pair_cap", "window_div", "window_lo_div", "min_len_factor",
                  "case1_pair_factor", "coreset_factor", "length_cap_factor", "alpha_c",
                  "delta_c"):
        assert getattr(TUNED, field) < getattr(PAPER, field), field
    # the window ratio that drives the 3/2 growth argument is preserved
    assert PAPER.window_lo_div * TUNED.window_div == TUNED.window_lo_div * PAPER.window_div
