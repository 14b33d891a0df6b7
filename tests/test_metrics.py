import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metrics_io import cosine_similarity, format_trials, read_similarity_csv
from voicecloak.audio_io import Waveform
from voicecloak.encoder import cosine_loss
from voicecloak.metrics import (
    TrialFormatError,
    average_by_speaker,
    compute_eer,
    parse_trials,
    score_trials,
    similarity_matrix,
    snr_db,
    write_similarity_csv,
)


def brute_force_eer(target, nontarget):
    """Reference sweep: evaluate FAR/FRR at score midpoints and beyond both
    ends, then interpolate the crossing on the segment where FAR-FRR flips."""
    target = np.asarray(target, dtype=float)
    nontarget = np.asarray(nontarget, dtype=float)
    scores = np.unique(np.concatenate([target, nontarget]))
    candidates = np.concatenate(
        [[scores[0] - 1.0], scores, (scores[:-1] + scores[1:]) / 2.0, [scores[-1] + 1.0]]
    )
    candidates.sort()
    far = np.array([np.mean(nontarget >= t) for t in candidates])
    frr = np.array([np.mean(target < t) for t in candidates])
    diff = far - frr
    k = int(np.argmax(diff <= 0.0))
    if k == 0:
        return float(far[0])
    t = diff[k - 1] / (diff[k - 1] - diff[k])
    return float(far[k - 1] + t * (far[k] - far[k - 1]))


def sweep_eer(target, nontarget):
    """Reference per-threshold scan: one full pass over both score sets per
    distinct score (plus one beyond the maximum), interpolated between the
    two points where FAR - FRR changes sign. Returns (eer, threshold)."""
    target = np.asarray(target, dtype=float)
    nontarget = np.asarray(nontarget, dtype=float)
    thresholds = np.unique(np.concatenate([target, nontarget]))
    thresholds = np.append(thresholds, thresholds[-1] + 1.0)
    far = np.array([np.mean(nontarget >= t) for t in thresholds])
    frr = np.array([np.mean(target < t) for t in thresholds])
    diff = far - frr
    k = int(np.argmax(diff <= 0.0))
    if k == 0:
        return float(far[0]), float(thresholds[0])
    t = diff[k - 1] / (diff[k - 1] - diff[k])
    return (
        float(far[k - 1] + t * (far[k] - far[k - 1])),
        float(thresholds[k - 1] + t * (thresholds[k] - thresholds[k - 1])),
    )


def _tied_scores(max_size):
    """Score lists on a coarse grid, so that ties within and across sets abound."""
    return st.lists(st.integers(-30, 30), min_size=1, max_size=max_size).map(
        lambda v: np.array(v) / 20.0
    )


def _free_scores(max_size):
    return st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=max_size
    ).map(np.array)


def _embedding_map(rng, keys, dim=128):
    return {k: rng.standard_normal(dim) for k in keys}


class TestSnr:
    def test_identical_signals_are_infinite(self):
        w = Waveform(np.ones(100), 16000)
        assert snr_db(w, w) == float("inf")

    def test_known_ratio(self):
        ref = Waveform(np.ones(1000), 16000)
        test = Waveform(np.ones(1000) + 0.1, 16000)
        assert snr_db(ref, test) == pytest.approx(20.0, abs=1e-12)

    def test_trims_to_common_length(self):
        ref = Waveform(np.ones(100), 16000)
        test = Waveform(np.concatenate([np.ones(100) + 0.5, np.zeros(50)]), 16000)
        assert snr_db(ref, test) == pytest.approx(10 * np.log10(1.0 / 0.25), abs=1e-12)

    def test_rejects_rate_mismatch(self):
        with pytest.raises(ValueError, match="rates differ"):
            snr_db(Waveform(np.ones(4), 16000), Waveform(np.ones(4), 8000))

    def test_rejects_zero_reference(self):
        with pytest.raises(ValueError, match="zero-energy"):
            snr_db(Waveform(np.zeros(4), 16000), Waveform(np.ones(4), 16000))


class TestCosineMetrics:
    def test_cosine_loss_is_negative_similarity(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(8), rng.standard_normal(8)
        assert cosine_loss(a, b) == pytest.approx(-cosine_similarity(a, b), abs=1e-15)
        assert cosine_loss(a, a) == pytest.approx(-1.0, abs=1e-12)


class TestTrials:
    def test_parse_round_trip(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("a b target\n\nc d NONTARGET\n e f Target \n")
        enroll_ids, test_ids, is_target = parse_trials(path)
        assert enroll_ids == ["a", "c", "e"]
        assert test_ids == ["b", "d", "f"]
        assert is_target.dtype == bool and is_target.tolist() == [True, False, True]
        path2 = tmp_path / "again.txt"
        path2.write_text(format_trials(enroll_ids, test_ids, is_target))
        again = parse_trials(path2)
        assert again[:2] == (enroll_ids, test_ids)
        np.testing.assert_array_equal(again[2], is_target)

    def test_rejects_wrong_field_count_with_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b target\nc d\n")
        with pytest.raises(TrialFormatError, match=r"bad\.txt:2.*3 fields"):
            parse_trials(path)

    def test_rejects_unknown_label(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b yes\n")
        with pytest.raises(TrialFormatError, match="label"):
            parse_trials(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n")
        with pytest.raises(TrialFormatError, match="no trials"):
            parse_trials(path)

    def test_score_trials_orders_and_looks_up(self):
        embeddings = {
            "x": np.array([1.0, 0.0]),
            "y": np.array([0.0, 1.0]),
            "z": np.array([1.0, 1.0]),
        }
        scores = score_trials(["x", "x"], ["y", "z"], embeddings, embeddings)
        np.testing.assert_allclose(scores, [0.0, 1.0 / np.sqrt(2.0)], atol=1e-12)

    def test_score_trials_separate_test_map(self):
        enroll = {"x": np.array([1.0, 0.0])}
        test = {"x": np.array([-1.0, 0.0])}
        scores = score_trials(["x"], ["x"], enroll, test)
        assert scores[0] == pytest.approx(-1.0, abs=1e-12)

    def test_score_trials_names_missing_keys(self):
        with pytest.raises(TrialFormatError, match="'ghost'"):
            score_trials(["ghost"], ["x"], {"x": np.ones(2)}, {"x": np.ones(2)})

    def test_missing_key_is_reported_before_any_arithmetic(self):
        # The first trial's zero embedding would raise ValueError if any
        # score were computed before every key had been checked.
        embeddings = {"zero": np.zeros(4), "x": np.ones(4)}
        with pytest.raises(TrialFormatError, match="test key 'ghost' missing from embeddings"):
            score_trials(["zero", "x"], ["x", "ghost"], embeddings, embeddings)
        with pytest.raises(TrialFormatError,
                           match="enrollment key 'ghost' missing from embeddings"):
            score_trials(["zero", "ghost"], ["x", "x"], embeddings, embeddings)

    def test_the_first_missing_key_in_trial_order_is_named(self):
        # trial 2 lacks its test key and trial 5 its enrollment key; the keys
        # as sets say nothing of order, so the trial order decides
        embeddings = {k: np.ones(2) for k in "abcde"}
        enroll_ids = ["a", "b", "c", "d", "ghost-enroll"]
        test_ids = ["a", "ghost-test", "c", "d", "e"]
        with pytest.raises(TrialFormatError, match="test key 'ghost-test' missing"):
            score_trials(enroll_ids, test_ids, embeddings, embeddings)

    @pytest.mark.parametrize("side", ["enroll", "test"])
    def test_near_zero_norm_names_the_key(self, side):
        enroll = {"a": np.ones(3), "b": np.ones(3)}
        test = {"a": np.ones(3), "b": np.ones(3)}
        (enroll if side == "enroll" else test)["b"] = np.full(3, 1e-14)
        with pytest.raises(ValueError, match="near-zero-norm embedding for key 'b'"):
            score_trials(["a", "b"], ["a", "b"], enroll, test)

    def test_empty_trial_list_gives_no_scores(self):
        assert score_trials([], [], {"x": np.ones(2)}, {"x": np.ones(2)}).shape == (0,)


class TestVectorisedScoringOracle:
    """Gram-matrix scoring against one `cosine_similarity` call per pair."""

    def test_score_trials_matches_per_pair_cosines(self):
        rng = np.random.default_rng(5)
        keys = [f"spk{s:02d}-utt{u}" for s in range(8) for u in range(5)]
        embeddings = _embedding_map(rng, keys)
        pairs = rng.integers(0, len(keys), size=(3000, 2))  # keys repeat many times
        enroll_ids, test_ids = [keys[a] for a, _ in pairs], [keys[b] for _, b in pairs]
        scores = score_trials(enroll_ids, test_ids, embeddings, embeddings)
        expected = [cosine_similarity(embeddings[e], embeddings[t])
                    for e, t in zip(enroll_ids, test_ids)]
        np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-12)

    def test_score_trials_with_separate_maps(self):
        rng = np.random.default_rng(6)
        enroll = _embedding_map(rng, [f"e{i}" for i in range(12)] + ["shared"])
        test = _embedding_map(rng, [f"t{i}" for i in range(7)] + ["shared"])
        pairs = [(e, t) for e in enroll for t in test]
        pairs += pairs[::3]  # repeated trials
        enroll_ids, test_ids = [e for e, _ in pairs], [t for _, t in pairs]
        scores = score_trials(enroll_ids, test_ids, enroll, test)
        expected = [cosine_similarity(enroll[e], test[t]) for e, t in pairs]
        np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("speaker_level", [False, True])
    def test_similarity_matrix_matches_per_pair_cosines(self, speaker_level):
        rng = np.random.default_rng(7)
        rows = _embedding_map(rng, [f"spk{s:02d}-utt{u}" for s in range(9) for u in range(4)])
        cols = _embedding_map(rng, [f"spk{s:02d}-utt{u}" for s in range(5, 12) for u in range(3)])
        matrix, row_keys, col_keys = similarity_matrix(rows, cols, speaker_level)
        if speaker_level:
            rows, cols = average_by_speaker(rows), average_by_speaker(cols)
            assert row_keys == [f"spk{s:02d}" for s in range(9)]
        assert row_keys == sorted(rows) and col_keys == sorted(cols)
        expected = [[cosine_similarity(rows[r], cols[c]) for c in col_keys] for r in row_keys]
        np.testing.assert_allclose(matrix, expected, rtol=0, atol=1e-12)


class TestEer:
    def test_perfectly_separated_scores(self):
        eer, threshold = compute_eer([0.8, 0.9], [0.1, 0.2])
        assert eer == 0.0
        assert 0.2 < threshold <= 0.8

    def test_identical_distributions_sit_at_half(self):
        eer, _ = compute_eer([0.3, 0.7], [0.3, 0.7])
        assert eer == pytest.approx(0.5, abs=1e-12)

    def test_matches_brute_force_oracle_on_random_sets(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n_t = int(rng.integers(1, 50))
            n_n = int(rng.integers(1, 50))
            shift = rng.uniform(-1.0, 1.0)
            target = rng.normal(shift, 1.0, n_t)
            nontarget = rng.normal(0.0, 1.0, n_n)
            if rng.uniform() < 0.3:  # force ties between the two sets
                take = min(n_t, n_n)
                nontarget[:take] = target[:take]
            got, _ = compute_eer(target, nontarget)
            assert got == pytest.approx(brute_force_eer(target, nontarget), abs=1e-12)

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(2)
        target = rng.normal(1.0, 1.0, 30)
        nontarget = rng.normal(0.0, 1.0, 40)
        base, _ = compute_eer(target, nontarget)
        scaled, _ = compute_eer(3.0 * target + 2.0, 3.0 * nontarget + 2.0)
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_threshold_achieves_the_rates_it_claims(self):
        rng = np.random.default_rng(3)
        target = rng.normal(0.7, 0.4, 25)
        nontarget = rng.normal(0.0, 0.4, 25)
        eer, threshold = compute_eer(target, nontarget)
        far = np.mean(nontarget >= threshold)
        frr = np.mean(target < threshold)
        assert abs(far - frr) <= max(1.0 / 25, 0.08)
        assert min(far, frr) <= eer <= max(far, frr) + 1e-12

    def test_rejects_empty_sides(self):
        with pytest.raises(ValueError, match="at least one"):
            compute_eer([], [0.1])

    @pytest.mark.parametrize("n_target, n_nontarget, shift", [
        (1500, 6000, 0.3),
        (5000, 5000, 0.1),
        (6000, 400, -0.2),
    ])
    def test_equals_per_threshold_sweep_at_scale_with_ties(self, n_target, n_nontarget, shift):
        rng = np.random.default_rng(n_target + n_nontarget)
        target = np.round(rng.normal(0.3 + shift, 0.2, n_target), 2)
        nontarget = np.round(rng.normal(0.3, 0.2, n_nontarget), 2)
        assert np.unique(np.concatenate([target, nontarget])).size < 200  # heavy ties
        assert compute_eer(target, nontarget) == sweep_eer(target, nontarget)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.one_of(_tied_scores(300), _free_scores(40)),
        st.one_of(_tied_scores(300), _free_scores(40)),
    )
    def test_property_equals_per_threshold_sweep(self, target, nontarget):
        assert compute_eer(target, nontarget) == sweep_eer(target, nontarget)


class TestSimilarityMatrix:
    def test_values_are_pairwise_cosines(self):
        rows = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 2.0])}
        cols = {"c": np.array([1.0, 1.0])}
        matrix, row_keys, col_keys = similarity_matrix(rows, cols, False)
        assert row_keys == ["a", "b"]
        assert col_keys == ["c"]
        np.testing.assert_allclose(matrix, [[1 / np.sqrt(2)], [1 / np.sqrt(2)]], atol=1e-12)

    def test_speaker_level_averages_prefix_groups(self):
        rows = {
            "s1-a": np.array([1.0, 0.0]),
            "s1-b": np.array([0.0, 1.0]),
            "s2-a": np.array([-1.0, 0.0]),
        }
        matrix, row_keys, col_keys = similarity_matrix(rows, rows, speaker_level=True)
        assert row_keys == ["s1", "s2"]
        averaged = average_by_speaker(rows)
        np.testing.assert_allclose(averaged["s1"], [0.5, 0.5])
        expected = cosine_similarity(averaged["s1"], averaged["s2"])
        assert matrix[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_key_without_separator_forms_its_own_group(self):
        groups = average_by_speaker({"solo": np.ones(2), "s1-a": np.zeros(2)})
        assert sorted(groups) == ["s1", "solo"]

    def test_rejects_empty_maps(self):
        with pytest.raises(ValueError, match="nonempty"):
            similarity_matrix({}, {"a": np.ones(2)}, False)

    def test_near_zero_norm_names_the_key(self):
        rows = {"a": np.ones(3), "quiet": np.zeros(3)}
        with pytest.raises(ValueError, match="near-zero-norm embedding for key 'quiet'"):
            similarity_matrix({"a": np.ones(3)}, rows, False)
        with pytest.raises(ValueError, match="near-zero-norm embedding for key 's2'"):
            similarity_matrix(
                {"s1-a": np.ones(3), "s2-a": np.ones(3), "s2-b": -np.ones(3)},
                {"s1-a": np.ones(3)},
                speaker_level=True,
            )

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        rows = {f"r{i}": rng.standard_normal(6) for i in range(3)}
        cols = {f"c{j}": rng.standard_normal(6) for j in range(2)}
        matrix, row_keys, col_keys = similarity_matrix(rows, cols, False)
        path = tmp_path / "sim.csv"
        write_similarity_csv(path, matrix, row_keys, col_keys)
        back, back_rows, back_cols = read_similarity_csv(path)
        assert back_rows == row_keys
        assert back_cols == col_keys
        np.testing.assert_allclose(back, matrix, atol=1e-10)

    def test_csv_bytes_match_csv_writer_cell_by_cell(self, tmp_path):
        # the row-wise writer against csv.writer with f"{v:.12g}" per cell
        row_keys = ["plain", "has,comma", 'has"quote', "has space", " lead", ""]
        col_keys = ["c,1", 'c"2', "c 3", "c4"]
        matrix = np.array([[1.0, -0.0, 1e-300, 0.1 + 0.2],
                           [-1.0, 0.0, -1e-300, 1 / 3]] * 3)
        path, reference = tmp_path / "sim.csv", tmp_path / "reference.csv"
        write_similarity_csv(path, matrix, row_keys, col_keys)
        with open(reference, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([""] + col_keys)
            for key, row in zip(row_keys, matrix):
                writer.writerow([key] + [f"{v:.12g}" for v in row])
        assert path.read_bytes() == reference.read_bytes()
        assert b'\r\n"has""quote",1,-0,1e-300,0.3\r\n' in path.read_bytes()
