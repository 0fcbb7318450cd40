import csv
import dataclasses
import json

import numpy as np
import pytest

from dualquant import PEAK_TARGET, Quantizer, Signal, experiment, save_wav
from dualquant.experiment import (
    ExperimentConfig,
    GridRow,
    RESULT_COLUMNS,
    build_filter,
    padded_length,
    run_grid,
    synth_corpus,
    synth_sparse_signal,
)


def small_config(tmp_path, **overrides):
    base = dict(
        synth_count=2,
        synth_seed=11,
        synth_duration_s=0.5,
        synth_rate_hz=16000,
        coarse_bits=[8, 10],
        fine_bits=[14],
        k=4,
        filter_taps=65,
        filter_beta=8.0,
        frame_window=512,
        frame_hop=128,
        frame_channels=512,
        max_iters=40,
        output_dir=str(tmp_path / "out"),
        record_timing=True,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_defaults_cover_stated_grid(self):
        cfg = ExperimentConfig()
        assert cfg.coarse_bits == list(range(4, 17))
        assert cfg.fine_bits == list(range(10, 25))
        assert cfg.k == 4

    def test_file_roundtrip(self, tmp_path):
        cfg = ExperimentConfig(synth_count=3, lambda_table={"10,20": 0.5})
        path = tmp_path / "cfg.json"
        cfg.to_file(path)
        again = ExperimentConfig.from_file(path)
        assert again == cfg

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"coarse_bitz": [4]}))
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_file(path)

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"k": "4"}, "config key 'k' must be an integer"),
            ({"k": True}, "config key 'k' must be an integer"),
            ({"coarse_bits": 8}, "config key 'coarse_bits' must be a list"),
            ({"coarse_bits": [8, "10"]}, "entry of config key 'coarse_bits'"),
            ({"max_iters": "3"}, "config key 'max_iters' must be an integer"),
            ({"max_iters": 3.0}, "config key 'max_iters' must be an integer"),
            ({"lam": "0.1"}, "config key 'lam' must be a finite number"),
            ({"rho": True}, "config key 'rho' must be a finite number"),
            ({"filter_beta": float("nan")}, "config key 'filter_beta'"),
            ({"record_timing": 1}, "config key 'record_timing' must be true or false"),
            ({"output_dir": 3}, "config key 'output_dir' must be a string"),
            ({"lambda_table": {"10,20": "0.5"}}, "lambda_table entry '10,20'"),
            ([1, 2], "not a JSON object"),
            # keys lambda_for would never look up
            ({"lambda_table": {"10, 20": 0.5}}, 'keys must look like "coarse,fine"'),
            ({"lambda_table": {"010,20": 0.5}}, 'keys must look like "coarse,fine"'),
            ({"lambda_table": {"40,20": 0.5}}, "key '40,20' names a bit depth outside"),
            ({"lambda_table": {"5,9": 0.1}}, "key '5,9' names no cell of coarse_bits"),
            # a repeated depth would run its cells twice
            ({"coarse_bits": [10, 10]}, "config key 'coarse_bits' must list distinct"),
            ({"fine_bits": [20, 16, 20]}, "config key 'fine_bits' must list distinct"),
            # a JSON integer with no float value
            ({"filter_beta": 10**400}, "config key 'filter_beta' must be a finite number"),
        ],
    )
    def test_mistyped_config_rejected(self, tmp_path, data, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_file(path)

    @pytest.mark.parametrize(
        "data",
        [
            {"coarse_bitz": [4]}, {"k": "4"}, {"coarse_bits": [8, "10"]}, [1, 2],
            {"rho": 3}, {"coarse_bits": [40]}, {"lambda_table": {"10,20": "0.5"}},
        ],
        ids=[
            "unknown-key", "mistyped-scalar", "mistyped-list-entry", "not-an-object",
            "rho-out-of-range", "bit-depth-out-of-range", "mistyped-table-entry",
        ],
    )
    def test_config_file_errors_name_the_file(self, tmp_path, data):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError) as info:
            ExperimentConfig.from_file(path)
        assert str(info.value).startswith(f"{path}: ")
        assert str(info.value).count(str(path)) == 1

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "lambda_table"]
    )
    def test_every_key_is_type_checked(self, name):
        # a string where anything but a string is declared, else a number
        wrong = 3 if name == "output_dir" else "3"
        with pytest.raises(ValueError, match=f"^config key {name!r} must be"):
            ExperimentConfig(**{name: wrong})

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"rho": 3}, "rho must lie strictly inside"),
            ({"max_iters": 0}, "max_iters must be >= 1"),
            ({"lam": -0.5}, "config: lam must be positive"),
            ({"lambda_table": {"10,16": -1}}, "lambda_table entry '10,16': lam must be positive"),
        ],
    )
    def test_solver_values_checked_by_solver_config(self, tmp_path, data, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_file(path)

    def test_empty_bit_lists_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(coarse_bits=[])
        with pytest.raises(ValueError):
            ExperimentConfig(fine_bits=[])

    def test_bits_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(coarse_bits=[0])
        with pytest.raises(ValueError):
            ExperimentConfig(fine_bits=[33])

    def test_lambda_table_key_format(self):
        with pytest.raises(ValueError):
            ExperimentConfig(lambda_table={"10;20": 1.0})

    def test_lambda_resolution_order(self):
        cfg = ExperimentConfig(lambda_table={"10,20": 0.25})
        assert cfg.lambda_for(10, 20) == 0.25
        # automatic default: half the coarse quantization step
        assert cfg.lambda_for(8, 20) == Quantizer(8).step / 2
        cfg_global = ExperimentConfig(lam=0.7)
        assert cfg_global.lambda_for(8, 20) == 0.7


class TestSyntheticCorpus:
    def test_deterministic_for_fixed_seed(self):
        a = synth_corpus(3, 123, 0.25, 16000)
        b = synth_corpus(3, 123, 0.25, 16000)
        for (name_a, sig_a), (name_b, sig_b) in zip(a, b):
            assert name_a == name_b
            np.testing.assert_array_equal(sig_a.samples, sig_b.samples)

    def test_seed_changes_signals(self):
        a = synth_corpus(1, 1, 0.25, 16000)[0][1]
        b = synth_corpus(1, 2, 0.25, 16000)[0][1]
        assert np.any(a.samples != b.samples)

    @pytest.mark.parametrize(
        "count, duration_s, rate_hz",
        [(1, 2.0**27 / 8000 + 1, 8000), (2**27, 1.0, 2), (1, float("inf"), 8000),
         (1, float("nan"), 8000)],
    )
    def test_corpus_size_capped(self, monkeypatch, count, duration_s, rate_hz):
        def refuse(*args):
            pytest.fail("a signal was synthesized before the corpus size was checked")

        monkeypatch.setattr(experiment, "synth_sparse_signal", refuse)
        with pytest.raises(ValueError, match="at most 134217728 samples"):
            synth_corpus(count, 0, duration_s, rate_hz)

    def test_shape_and_normalization(self):
        rng = np.random.default_rng(5)
        sig = synth_sparse_signal(rng, 0.5, 16000)
        assert len(sig) == 8000
        assert np.max(np.abs(sig.samples)) == pytest.approx(PEAK_TARGET, abs=1e-12)


class TestHelpers:
    def test_padded_length(self):
        assert padded_length(32000, 4, 512, 2048) == 32768
        assert padded_length(2048, 4, 512, 2048) == 2048
        # a zero factor, hop or channel count would make the lcm 0
        for args, name in [
            ((32000, 0, 512, 2048), "factor k"),
            ((32000, 4, 0, 2048), "frame hop"),
            ((32000, 4, 512, 0), "frame channels"),
            ((32000, -4, 512, 2048), "factor k"),
            ((0, 4, 512, 2048), "signal length"),
        ]:
            with pytest.raises(ValueError, match=name):
                padded_length(*args)

    def test_padded_length_capped(self):
        # the cap holds at the limit, for a padded length from the signal,
        # from an lcm, or from one multiple of it
        assert padded_length(2**27, 4, 512, 2048) == 2**27
        for args in [(2**27 + 1, 4, 512, 2048), (1, 4, 512, 2**33), (1, 3, 2**26, 2**26)]:
            with pytest.raises(ValueError, match="exceeds 134217728 samples"):
                padded_length(*args)

    def test_build_filter_impulse_for_unit_factor(self):
        fir = build_filter(1)
        np.testing.assert_array_equal(fir.taps, [1.0])


class TestRunGrid:
    def test_shape_contract_and_outputs(self, tmp_path):
        cfg = small_config(tmp_path)
        rows = run_grid(cfg)
        assert len(rows) == 2 * 2 * 1  # signals x coarse x fine
        combos = {(r.signal_id, r.coarse_bits, r.fine_bits) for r in rows}
        assert len(combos) == len(rows)
        assert all(r.sdr_cva is not None for r in rows)
        assert rows == sorted(
            rows, key=lambda r: (r.signal_id, r.coarse_bits, r.fine_bits)
        )
        results = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert results[0] == ",".join(RESULT_COLUMNS)
        assert len(results) == 1 + len(rows)
        averages = (tmp_path / "out" / "averages.csv").read_text().splitlines()
        assert len(averages) == 1 + 2  # one line per bit combination

    def test_deterministic_without_timing(self, tmp_path):
        cfg_a = small_config(tmp_path, output_dir=str(tmp_path / "a"), record_timing=False)
        cfg_b = small_config(tmp_path, output_dir=str(tmp_path / "b"), record_timing=False)
        run_grid(cfg_a)
        run_grid(cfg_b)
        assert (tmp_path / "a" / "results.csv").read_bytes() == (
            tmp_path / "b" / "results.csv"
        ).read_bytes()

    def test_worker_pool_matches_serial(self, tmp_path):
        cfg_a = small_config(tmp_path, output_dir=str(tmp_path / "serial"), record_timing=False)
        cfg_b = small_config(
            tmp_path, output_dir=str(tmp_path / "pool"), record_timing=False, workers=3
        )
        run_grid(cfg_a)
        run_grid(cfg_b)
        assert (tmp_path / "serial" / "results.csv").read_bytes() == (
            tmp_path / "pool" / "results.csv"
        ).read_bytes()

    def test_failed_cell_recorded_as_empty(self, tmp_path, monkeypatch):
        import dualquant.experiment as experiment

        real = experiment.cva_solve

        def flaky(y1, y2, model, frame, cfg=None, reference=None):
            if model.coarse.bits == 8:
                raise ValueError("injected failure")
            return real(y1, y2, model, frame, cfg, reference)

        monkeypatch.setattr(experiment, "cva_solve", flaky)
        cfg = small_config(tmp_path)
        rows = run_grid(cfg)
        failed = [r for r in rows if r.coarse_bits == 8]
        assert failed and all(r.sdr_cva is None for r in failed)
        ok = [r for r in rows if r.coarse_bits == 10]
        assert ok and all(r.sdr_cva is not None for r in ok)
        text = (tmp_path / "out" / "results.csv").read_text()
        assert ",,,,\n" in text or ",,,," in text  # empty metric fields present

    def test_cell_out_of_memory_recorded_as_failed(self, tmp_path, monkeypatch, caplog):
        # a solve whose trace arrays cannot be allocated (a huge max_iters)
        # fails its cell, not the grid
        import dualquant.experiment as experiment

        real = experiment.cpa_solve

        def out_of_memory(y2, quantizer, frame, cfg=None, reference=None):
            if quantizer.bits == 8:
                raise MemoryError
            return real(y2, quantizer, frame, cfg, reference)

        monkeypatch.setattr(experiment, "cpa_solve", out_of_memory)
        with caplog.at_level("WARNING", logger="dualquant.experiment"):
            rows = run_grid(small_config(tmp_path, synth_count=1, max_iters=5))
        assert [(r.coarse_bits, r.sdr_cva is None) for r in rows] == [(8, True), (10, False)]
        assert "MemoryError" in caplog.text
        results = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert len(results) == 1 + 2

    def test_csv_fields_read_back_to_rows_and_means(self, tmp_path, monkeypatch):
        import dualquant.experiment as experiment

        real = experiment.cva_solve

        def flaky(y1, y2, model, frame, cfg=None, reference=None):
            if model.coarse.bits == 8:
                raise ValueError("injected failure")
            return real(y1, y2, model, frame, cfg, reference)

        monkeypatch.setattr(experiment, "cva_solve", flaky)
        rows = run_grid(small_config(tmp_path, max_iters=5))
        kinds = {"str": str, "int": int, "int | None": int, "float | None": float}
        parse = {f.name: kinds[f.type] for f in dataclasses.fields(GridRow)}

        def bits(values):
            return [v.hex() if isinstance(v, float) else v for v in values]

        with open(tmp_path / "out" / "results.csv", newline="") as fh:
            table = list(csv.DictReader(fh))
        assert len(table) == len(rows)
        for record, row in zip(table, rows):
            back = [None if v == "" else parse[n](v) for n, v in record.items()]
            assert bits(back) == bits(dataclasses.astuple(row))
        assert any(r.sdr_cva is None for r in rows)

        with open(tmp_path / "out" / "averages.csv", newline="") as fh:
            averages = list(csv.DictReader(fh))
        assert len(averages) == 2
        for record in averages:
            coarse, fine = int(record["coarse_bits"]), int(record["fine_bits"])
            group = [r for r in rows if (r.coarse_bits, r.fine_bits) == (coarse, fine)]
            done = [r for r in group if r.sdr_cva is not None]
            assert int(record["n_signals"]) == len(done)
            for name in ("sdr_y2", "sdr_cpa", "sdr_cva"):
                field = record[f"mean_{name}"]
                if done:
                    mean = float(np.mean([getattr(r, name) for r in done]))
                    assert float(field).hex() == mean.hex()
                else:
                    assert field == ""

    def test_missing_input_file_rejected(self, tmp_path):
        cfg = small_config(tmp_path, signals=[str(tmp_path / "nope.wav")])
        with pytest.raises(ValueError, match="not found"):
            run_grid(cfg)

    def test_inputs_sharing_a_stem_rejected(self, tmp_path):
        # the stem is the row's signal_id, so two x.wav would give x rows
        # that nothing tells apart
        paths = [tmp_path / "d0" / "x.wav", tmp_path / "d1" / "x.wav"]
        for path in paths:
            path.parent.mkdir()
            save_wav(path, Signal(np.full(512, 0.25), 16000), bits=64)
        cfg = small_config(tmp_path, signals=[str(p) for p in paths])
        with pytest.raises(ValueError, match="file stem 'x'"):
            run_grid(cfg)

    def test_dual_branch_beats_raw_observation_on_average(self, tmp_path):
        cfg = small_config(tmp_path, coarse_bits=[10], fine_bits=[16], max_iters=80)
        rows = run_grid(cfg)
        gains = [r.sdr_cva - r.sdr_y2 for r in rows]
        assert np.mean(gains) > 1.0


@pytest.mark.slow
def test_grid_sdr_nondecreasing_in_fine_bits(tmp_path):
    cfg = ExperimentConfig(
        synth_count=5,
        synth_seed=1337,
        synth_duration_s=1.0,
        synth_rate_hz=16000,
        coarse_bits=[10],
        fine_bits=[12, 16, 20],
        k=4,
        frame_window=1024,
        frame_hop=256,
        frame_channels=1024,
        max_iters=120,
        output_dir=str(tmp_path / "mono"),
        record_timing=False,
    )
    rows = run_grid(cfg)
    means = []
    for fine in cfg.fine_bits:
        means.append(np.mean([r.sdr_cva for r in rows if r.fine_bits == fine]))
    for lo, hi in zip(means, means[1:]):
        assert hi >= lo - 0.5
