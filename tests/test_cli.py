import dataclasses
import io
import json
import struct
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualquant import cli, default_steps, experiment, frames, load_wav, sdr
from dualquant.cli import main
from dualquant.experiment import ExperimentConfig, _from_json, build_filter, read_manifest


@pytest.fixture
def workspace(tmp_path):
    sig_dir = tmp_path / "sig"
    rc = main(
        [
            "synth",
            "--outdir",
            str(sig_dir),
            "--count",
            "1",
            "--seed",
            "42",
            "--duration",
            "0.5",
            "--rate",
            "16000",
        ]
    )
    assert rc == 0
    return tmp_path, sig_dir / "synthetic-000.wav"


def simulate(tmp_path, wav, outdir, iters="50"):
    rc = main(
        [
            "simulate",
            str(wav),
            "--outdir",
            str(outdir),
            "--coarse-bits",
            "10",
            "--fine-bits",
            "16",
            "--frame-window",
            "512",
            "--frame-hop",
            "128",
            "--frame-channels",
            "512",
            "--iters",
            iters,
        ]
    )
    assert rc == 0
    return outdir


class TestSynth:
    def test_deterministic(self, tmp_path):
        for sub in ("a", "b"):
            assert (
                main(
                    ["synth", "--outdir", str(tmp_path / sub), "--count", "2",
                     "--seed", "7", "--duration", "0.25", "--rate", "16000"]
                )
                == 0
            )
        for name in ("synthetic-000.wav", "synthetic-001.wav"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    @pytest.mark.parametrize(
        "flag, value", [("--duration", "1e9"), ("--duration", "nan"), ("--count", "10000")]
    )
    def test_corpus_size_rejected_before_allocation(
        self, tmp_path, capsys, monkeypatch, flag, value
    ):
        monkeypatch.setattr(experiment, "synth_sparse_signal", _refuse("synth_sparse_signal"))
        outdir = tmp_path / "s"
        sizes = {"--count": "1", "--duration": "2", "--rate": "48000", flag: value}
        argv = ["synth", "--outdir", str(outdir)]
        for pair in sizes.items():
            argv.extend(pair)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "at most 134217728 samples" in err
        assert len(err.strip().splitlines()) == 1
        assert not outdir.exists()


class TestSimulate(object):
    def test_outputs_and_manifest(self, workspace):
        tmp_path, wav = workspace
        outdir = simulate(tmp_path, wav, tmp_path / "run")
        for name in ("y1.wav", "y2.wav", "reference.wav", "manifest.json", "taps.csv"):
            assert (outdir / name).exists()
        manifest = read_manifest(outdir / "manifest.json")
        assert manifest["k"] == 4
        assert manifest["coarse_bits"] == 10
        assert manifest["fine_bits"] == 16
        assert manifest["padded_len"] % 512 == 0
        y1 = load_wav(outdir / "y1.wav")
        y2 = load_wav(outdir / "y2.wav")
        assert len(y2) == manifest["padded_len"]
        assert len(y1) * 4 == len(y2)
        taps_lines = (outdir / "taps.csv").read_text().splitlines()
        assert len(taps_lines) == manifest["filter"]["num_taps"]

    def test_missing_input(self, tmp_path, capsys):
        rc = main(["simulate", str(tmp_path / "ghost.wav"), "--outdir", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_zero_factor_reported(self, workspace, capsys):
        tmp_path, wav = workspace
        capsys.readouterr()
        rc = main(["simulate", str(wav), "--outdir", str(tmp_path / "o"), "--k", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "factor k" in err
        assert len(err.strip().splitlines()) == 1

    # float64 WAVs whose outputs' byte rate does not fit the 32-bit header
    # field: at 2^32 - 1 Hz none does; at 600 MHz y1's does (150 MHz), y2's not
    @pytest.mark.parametrize("rate", [2**32 - 1, 600_000_000])
    def test_rate_overflowing_the_wav_header_reported(self, tmp_path, capsys, rate):
        payload = np.random.default_rng(5).uniform(-0.5, 0.5, 4000).astype("<f8").tobytes()
        header = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + len(payload), b"WAVE", b"fmt ", 16,
            3, 1, rate, 0, 8, 64, b"data", len(payload),
        )
        wav = tmp_path / "fast.wav"
        wav.write_bytes(header + payload)
        rc = main(["simulate", str(wav), "--outdir", str(tmp_path / "o"), "--iters", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "sample rate" in err
        assert len(err.strip().splitlines()) == 1
        # refused before any file is written
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--frame-window", "0", "window length must be >= 1"),
            ("--frame-window", "4096", "exceeds channel count"),
            ("--iters", "0", "max_iters must be >= 1"),
            ("--rho", "3", "rho must lie strictly inside"),
            ("--lam", "-1", "lam must be positive"),
            # not strict JSON, and reconstruct would reject the manifest
            ("--lam", "nan", "lam must be positive and finite"),
            ("--lam", "inf", "lam must be positive and finite"),
        ],
    )
    def test_settings_reconstruct_would_reject(self, workspace, capsys, flag, value, message):
        tmp_path, wav = workspace
        capsys.readouterr()
        outdir = tmp_path / "o"
        rc = main(["simulate", str(wav), "--outdir", str(outdir), flag, value])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert len(err.strip().splitlines()) == 1
        assert not (outdir / "manifest.json").exists()

    def test_overflowing_l1_radius_refused_before_writing(self, workspace, capsys):
        # lam / sigma * weight at the dual-branch steps overflows; reconstruct
        # would refuse the manifest at solve time
        tmp_path, wav = workspace
        capsys.readouterr()
        outdir = tmp_path / "o"
        assert main(["simulate", str(wav), "--outdir", str(outdir), "--lam", "1e308"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "lam 1e+308, sigma 0." in err
        assert len(err.strip().splitlines()) == 1
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--iters", str(10**6 + 1), "16 bytes per iteration"),
            ("--iters", str(10**12), "16 bytes per iteration"),
            ("--filter-taps", str(10**9), "longer than the padded signal"),
            ("--frame-window", str(10**9), "exceeds channel count"),
            ("--frame-channels", str(2**33), "exceeds 134217728 samples"),
            ("--frame-hop", str(2**40), "exceeds 134217728 samples"),
        ],
    )
    def test_size_rejected_before_allocation(
        self, workspace, capsys, monkeypatch, flag, value, message
    ):
        def refuse_window(length):
            pytest.fail(f"hann_window ran with {length} samples before they were checked")

        monkeypatch.setattr(cli, "build_filter", _refuse_taps(cli.build_filter, int(value)))
        monkeypatch.setattr(frames, "hann_window", refuse_window)
        tmp_path, wav = workspace
        capsys.readouterr()
        outdir = tmp_path / "o"
        assert main(["simulate", str(wav), "--outdir", str(outdir), flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert len(err.strip().splitlines()) == 1
        assert not outdir.exists()

    def test_model_defaults_are_the_grid_defaults(self, workspace):
        tmp_path, wav = workspace
        assert main(["simulate", str(wav), "--outdir", str(tmp_path / "run")]) == 0
        manifest = read_manifest(tmp_path / "run" / "manifest.json")
        grid = ExperimentConfig()
        assert manifest["k"] == grid.k
        assert manifest["filter"]["num_taps"] == grid.filter_taps
        assert manifest["filter"]["beta"] == grid.filter_beta
        assert manifest["frame"] == {
            "window_len": grid.frame_window,
            "hop": grid.frame_hop,
            "num_channels": grid.frame_channels,
        }
        assert manifest["solver"]["rho"] == grid.rho
        assert manifest["solver"]["max_iters"] == grid.max_iters

    def test_automatic_lam_matches_the_grid(self, workspace):
        # simulate and the grid take the default l1 weight from one rule
        tmp_path, wav = workspace
        for coarse, fine in [(1, 2), (4, 12), (10, 20), (16, 24), (31, 32)]:
            outdir = tmp_path / f"c{coarse}"
            args = ["--coarse-bits", str(coarse), "--fine-bits", str(fine)]
            assert main(["simulate", str(wav), "--outdir", str(outdir), *args]) == 0
            lam = read_manifest(outdir / "manifest.json")["solver"]["lam"]
            grid = ExperimentConfig(coarse_bits=[coarse], fine_bits=[fine])
            assert lam == grid.lambda_for(coarse, fine) == 2.0**-coarse


class TestReconstruct:
    def test_bitwise_reproducible(self, workspace):
        tmp_path, wav = workspace
        outdir = simulate(tmp_path, wav, tmp_path / "run")
        manifest = str(outdir / "manifest.json")
        a = outdir / "xa.wav"
        b = outdir / "xb.wav"
        assert main(["reconstruct", manifest, "--out", str(a), "--trace", str(outdir / "ta.csv")]) == 0
        assert main(["reconstruct", manifest, "--out", str(b), "--trace", str(outdir / "tb.csv")]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (outdir / "ta.csv").read_bytes() == (outdir / "tb.csv").read_bytes()

    def test_improves_on_raw_observation(self, workspace):
        tmp_path, wav = workspace
        outdir = simulate(tmp_path, wav, tmp_path / "run", iters="60")
        manifest = str(outdir / "manifest.json")
        rc = main(["reconstruct", manifest, "--reference", str(outdir / "reference.wav")])
        assert rc == 0
        x = load_wav(wav)
        xhat = load_wav(outdir / "xhat.wav")
        assert len(xhat) == len(x)
        ref = load_wav(outdir / "reference.wav")
        y2 = load_wav(outdir / "y2.wav")
        assert sdr(x, xhat) > sdr(ref, y2) + 1.0
        trace = (outdir / "trace.csv").read_text().splitlines()
        assert trace[0] == "iteration,objective,sdr"
        assert len(trace) == 61
        assert trace[1].split(",")[2] != ""  # sdr column populated

    def test_trace_sdr_empty_without_reference(self, workspace):
        tmp_path, wav = workspace
        outdir = simulate(tmp_path, wav, tmp_path / "run")
        assert main(["reconstruct", str(outdir / "manifest.json")]) == 0
        row = (outdir / "trace.csv").read_text().splitlines()[1]
        assert row.endswith(",")

    def test_tampered_manifest_rejected(self, workspace, capsys):
        tmp_path, wav = workspace
        outdir = simulate(tmp_path, wav, tmp_path / "run")
        manifest = read_manifest(outdir / "manifest.json")
        manifest["filter"]["sha256"] = "0" * 64
        (outdir / "manifest.json").write_text(json.dumps(manifest))
        rc = main(["reconstruct", str(outdir / "manifest.json")])
        assert rc == 1
        assert "digest mismatch" in capsys.readouterr().err

    def test_manifest_missing_key_reported(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"k": 4}))
        rc = main(["reconstruct", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'coarse_bits'" in err
        assert len(err.strip().splitlines()) == 1

    def test_manifest_unknown_solver_key_reported(self, workspace, capsys):
        tmp_path, wav = workspace
        outdir = simulate(tmp_path, wav, tmp_path / "run")
        manifest = read_manifest(outdir / "manifest.json")
        manifest["solver"]["gamma"] = 0.5
        (outdir / "manifest.json").write_text(json.dumps(manifest))
        rc = main(["reconstruct", str(outdir / "manifest.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'gamma'" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "section, key, value",
        [
            (None, "k", "4"),
            ("solver", "max_iters", "2"),
            ("solver", "tau", True),
            ("solver", "sigma", float("nan")),
            # in range of their type, but they would crop or rescale wrongly
            (None, "original_len", 0),
            (None, "original_len", 10**9),
            (None, "normalization_scale", -1.0),
            # the estimate could not be saved at this rate
            (None, "sample_rate_hz", 0),
            (None, "sample_rate_hz", -5),
            (None, "sample_rate_hz", 2**29),
        ],
    )
    def test_manifest_mistyped_value_reported(
        self, workspace, capsys, monkeypatch, section, key, value
    ):
        tmp_path, wav = workspace
        outdir = simulate(tmp_path, wav, tmp_path / "run")
        manifest = read_manifest(outdir / "manifest.json")
        (manifest[section] if section else manifest)[key] = value
        (outdir / "manifest.json").write_text(json.dumps(manifest))

        def no_solve(*args, **kwargs):
            pytest.fail("a solve ran on a manifest that should have been rejected")

        monkeypatch.setattr(cli, "cva_solve", no_solve)
        monkeypatch.setattr(cli, "cpa_solve", no_solve)
        dotted = f"{section}.{key}" if section else key
        for command, estimate in (("reconstruct", "xhat.wav"), ("baseline", "xhat_baseline.wav")):
            rc = main([command, str(outdir / "manifest.json")])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and f"'{dotted}'" in err
            assert len(err.strip().splitlines()) == 1
            assert not (outdir / estimate).exists()

    def test_written_manifest_reads_back_as_built(self, workspace, monkeypatch):
        # simulate builds its run from the manifest it writes; reading that
        # file back gives the same manifest, every key and value
        tmp_path, wav = workspace
        built = []
        real = cli._build_run

        def record(manifest, path):
            built.append(manifest)
            return real(manifest, path)

        monkeypatch.setattr(cli, "_build_run", record)
        outdir = simulate(tmp_path, wav, tmp_path / "run")
        assert len(built) == 1
        path = outdir / "manifest.json"
        assert _from_json(cli.Manifest, read_manifest(path), path, "manifest") == built[0]

    @pytest.mark.parametrize("section", [None, "filter", "frame", "files"])
    def test_manifest_unknown_key_reported_in_every_section(self, workspace, capsys, section):
        tmp_path, wav = workspace
        outdir = simulate(tmp_path, wav, tmp_path / "run", iters="2")
        manifest = read_manifest(outdir / "manifest.json")
        (manifest[section] if section else manifest)["gamma"] = 0.5
        (outdir / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        for command in ("reconstruct", "baseline"):
            assert main([command, str(outdir / "manifest.json")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "unknown" in err and "'gamma'" in err
            assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("solver", "max_iters", 10**12, "16 bytes per iteration"),
            ("filter", "num_taps", 10**9, "longer than the padded signal"),
            # JSON integers are exact: these pass an int check but have no float value
            (None, "normalization_scale", 10**400, "'normalization_scale' must be a finite"),
            ("solver", "lam", 10**400, "'solver.lam' must be a finite number"),
            # a settings error names the file, as a type error does
            ("solver", "rho", 3, "manifest.json: rho must lie strictly inside (0, 2), got 3"),
        ],
        ids=["max_iters", "num_taps", "normalization_scale", "lam", "rho"],
    )
    def test_manifest_value_rejected_before_allocation(
        self, workspace, capsys, monkeypatch, section, key, value, message
    ):
        tmp_path, wav = workspace
        outdir = simulate(tmp_path, wav, tmp_path / "run", iters="2")
        manifest = read_manifest(outdir / "manifest.json")
        (manifest[section] if section else manifest)[key] = value
        (outdir / "manifest.json").write_text(json.dumps(manifest))
        monkeypatch.setattr(cli, "build_filter", _refuse_taps(cli.build_filter, value))
        capsys.readouterr()
        for command in ("reconstruct", "baseline"):
            assert main([command, str(outdir / "manifest.json")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and message in err
            assert len(err.strip().splitlines()) == 1


    def test_frame_size_bounded_by_the_observation(self, workspace, capsys, monkeypatch):
        # window, channels and padded length agree with each other, but not
        # with y2: no window of that length may be built
        tmp_path, wav = workspace
        outdir = simulate(tmp_path, wav, tmp_path / "run", iters="2")
        manifest = read_manifest(outdir / "manifest.json")
        manifest["frame"].update(window_len=2**33, num_channels=2**33)
        manifest["padded_len"] = 2**33
        (outdir / "manifest.json").write_text(json.dumps(manifest))

        def refuse_window(length):
            pytest.fail(f"hann_window ran with {length} samples before they were checked")

        monkeypatch.setattr(frames, "hann_window", refuse_window)
        capsys.readouterr()
        for command in ("reconstruct", "baseline"):
            assert main([command, str(outdir / "manifest.json")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "'padded_len' is 8589934592, but y2 has" in err
            assert len(err.strip().splitlines()) == 1

    def test_frame_size_bounded_by_the_padded_length(self, workspace, capsys, monkeypatch):
        # padded_len matches y2, and window and channels agree with each
        # other, but not with padded_len: no window of that length may be built
        tmp_path, wav = workspace
        outdir = simulate(tmp_path, wav, tmp_path / "run", iters="2")
        manifest = read_manifest(outdir / "manifest.json")
        manifest["frame"].update(window_len=2**33, num_channels=2**33)
        (outdir / "manifest.json").write_text(json.dumps(manifest))

        def refuse_window(length):
            pytest.fail(f"hann_window ran with {length} samples before they were checked")

        monkeypatch.setattr(frames, "hann_window", refuse_window)
        capsys.readouterr()
        for command in ("reconstruct", "baseline"):
            assert main([command, str(outdir / "manifest.json")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "channel count 8589934592 exceeds" in err
            assert len(err.strip().splitlines()) == 1


def _refuse(name):
    """A stand-in for the allocator ``name`` that fails the test if called."""

    def refuse(*args, **kwargs):
        pytest.fail(f"{name} ran before the sizes were checked")

    return refuse


def _refuse_taps(build_filter, num_taps):
    """``build_filter``, but failing the test when asked for ``num_taps`` taps."""

    def checked(k, taps=129, beta=8.0):
        if taps == num_taps:
            pytest.fail(f"build_filter ran with {taps} taps before they were checked")
        return build_filter(k, taps, beta)

    return checked


# One manifest value at a time; none is legal and large enough to make a
# run allocate or iterate much.
EDGE_VALUES = [0, -1, 1, 2.5, 1e308, 2**62, None, True, "text", ["list"], {"key": 1}]


def _keys(manifest, section=""):
    """Every key of ``manifest``, dotted for section members, sections too."""
    for name, value in manifest.items():
        key = f"{section}.{name}" if section else name
        yield key
        if isinstance(value, dict):
            yield from _keys(value, key)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A simulated 400-sample run (window 64, hop 16, 64 channels, one iteration)."""
    tmp = tmp_path_factory.mktemp("tiny")
    synth = ["synth", "--outdir", str(tmp), "--count", "1", "--duration", "0.05", "--rate", "8000"]
    assert main(synth) == 0
    sizes = ["--frame-window", "64", "--frame-hop", "16", "--frame-channels", "64", "--iters", "1"]
    outdir = tmp / "run"
    assert main(["simulate", str(tmp / "synthetic-000.wav"), "--outdir", str(outdir), *sizes]) == 0
    return outdir


class TestManifestFuzz:
    @settings(max_examples=120, derandomize=True)
    @given(data=st.data())
    def test_one_edited_key_runs_or_is_one_error_line(self, tiny_run, data):
        manifest = read_manifest(tiny_run / "manifest.json")
        key = data.draw(st.sampled_from(sorted(_keys(manifest))), label="key")
        value = data.draw(st.sampled_from(EDGE_VALUES), label="value")
        section, _, name = key.rpartition(".")
        (manifest[section] if section else manifest)[name] = value
        path = tiny_run / "edited.json"
        path.write_text(json.dumps(manifest))
        outputs = ["--out", str(tiny_run / "xhat.wav"), "--trace", str(tiny_run / "trace.csv")]
        reference = ["--reference", str(tiny_run / "reference.wav")]
        for command in ("reconstruct", "baseline"):
            _assert_runs_or_one_error_line([command, str(path), *reference, *outputs], key, value)


def _assert_runs_or_one_error_line(argv, *case):
    """``main(argv)`` exits 0 with nothing on stderr, or 1 with one ``error:``
    line, and warns no ``RuntimeWarning`` (a terminal would show it above
    the error line).  Returns the exit code and the stderr lines."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            rc = main(argv)
    numeric = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert numeric == [], (argv[0], *case, numeric)
    lines = err.getvalue().splitlines()
    assert (rc, lines) == (0, []) or (
        rc == 1 and len(lines) == 1 and lines[0].startswith("error:")
    ), (argv[0], *case, rc, lines)
    return rc, lines


# A one-cell grid on one 400-sample signal (window 64, hop 16, 64 channels,
# one iteration).  output_dir and workers are not fuzzed: an edge value
# there would write outside the test's folder or ask for that many threads.
TINY_GRID = {
    "synth_count": 1, "synth_duration_s": 0.05, "synth_rate_hz": 8000, "coarse_bits": [8],
    "fine_bits": [14], "frame_window": 64, "frame_hop": 16, "frame_channels": 64, "max_iters": 1,
}
GRID_KEYS = sorted(
    f.name for f in dataclasses.fields(ExperimentConfig) if f.name not in ("output_dir", "workers")
)


class TestGridConfigFuzz:
    @settings(max_examples=150, derandomize=True)
    @given(data=st.data())
    def test_one_edited_key_runs_or_is_one_error_line(self, tmp_path_factory, data):
        key = data.draw(st.sampled_from(GRID_KEYS), label="key")
        value = data.draw(st.sampled_from(EDGE_VALUES), label="value")
        folder = tmp_path_factory.mktemp("grid")
        path = folder / "config.json"
        path.write_text(json.dumps({**TINY_GRID, key: value, "output_dir": str(folder / "out")}))
        _assert_runs_or_one_error_line(["grid", str(path)], key, value)


class TestOverflowingLam:
    """A ``lam`` whose l1 clip radius ``lam / sigma * weight`` overflows the
    float range ends the run with no numeric warning: one ``error:`` line,
    or a failed grid cell, naming ``lam`` and ``sigma``."""

    def test_manifest_lam(self, tiny_run, tmp_path):
        manifest = read_manifest(tiny_run / "manifest.json")
        manifest["solver"]["lam"] = 1e308
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        y1, y2 = ["--y1", str(tiny_run / "y1.wav")], ["--y2", str(tiny_run / "y2.wav")]
        outputs = ["--out", str(tmp_path / "xhat.wav"), "--trace", str(tmp_path / "trace.csv")]
        rc, lines = _assert_runs_or_one_error_line(["reconstruct", str(path), *y1, *y2, *outputs])
        assert rc == 1 and "lam 1e+308, sigma 0." in lines[0]
        # the baseline's unit sigma keeps this radius finite
        _assert_runs_or_one_error_line(["baseline", str(path), *y2, *outputs])

    @pytest.mark.parametrize("setting", [{"lam": 1e308}, {"lambda_table": {"8,14": 1e308}}])
    def test_grid_lam(self, tmp_path, caplog, setting):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**TINY_GRID, **setting, "output_dir": str(tmp_path / "out")}))
        rc, lines = _assert_runs_or_one_error_line(["grid", str(path)])
        assert rc == 1 and "no grid cell completed" in lines[0]
        (reason,) = [r.getMessage() for r in caplog.records if "failed" in r.getMessage()]
        assert "lam 1e+308, sigma 0." in reason


# (offset, struct format) of each field of the 44-byte header save_wav writes
WAV_FIELDS = {
    "riff": (0, "4s"), "riff_size": (4, "<I"), "wave": (8, "4s"), "fmt": (12, "4s"),
    "fmt_size": (16, "<I"), "audio_format": (20, "<H"), "channels": (22, "<H"),
    "rate": (24, "<I"), "byte_rate": (28, "<I"), "block_align": (32, "<H"),
    "bits": (34, "<H"), "data": (36, "4s"), "data_size": (40, "<I"),
}


def _field_values(fmt):
    """Edge values of a header field: a wrong or empty tag; or 0, 1, the
    format tags and sample widths the reader knows, the top bit and all
    ones (-1 and 2^62, cut to the field)."""
    if fmt == "4s":
        return [b"text", b"\0\0\0\0"]
    top = 2 ** (8 * struct.calcsize(fmt)) - 1
    return [0, 1, 2, 3, 8, 16, 24, 32, 64, top // 2 + 1, top]


@pytest.fixture(scope="module")
def tiny_wav(tmp_path_factory):
    """A 400-sample 16-bit WAV at 8 kHz."""
    folder = tmp_path_factory.mktemp("wav")
    synth = ["synth", "--outdir", str(folder), "--count", "1", "--duration", "0.05",
             "--rate", "8000", "--bits", "16"]
    assert main(synth) == 0
    return folder / "synthetic-000.wav"


class TestWavHeaderFuzz:
    @settings(max_examples=100, derandomize=True)
    @given(data=st.data())
    def test_one_edited_field_runs_or_is_one_error_line(self, tiny_wav, tmp_path_factory, data):
        field = data.draw(st.sampled_from(sorted(WAV_FIELDS)), label="field")
        offset, fmt = WAV_FIELDS[field]
        value = data.draw(st.sampled_from(_field_values(fmt)), label="value")
        raw = bytearray(tiny_wav.read_bytes())
        struct.pack_into(fmt, raw, offset, value)
        folder = tmp_path_factory.mktemp("edited")
        path = folder / "edited.wav"
        path.write_bytes(bytes(raw))
        sizes = ["--frame-window", "64", "--frame-hop", "16", "--frame-channels", "64"]
        simulate = ["simulate", str(path), "--outdir", str(folder / "run"), *sizes, "--iters", "1"]
        _assert_runs_or_one_error_line(simulate, field, value)
        _assert_runs_or_one_error_line(["sdr", str(path), str(path)], field, value)


class TestManifestSteps:
    def test_numeric_steps_give_the_outputs_of_unset_steps(self, workspace):
        # simulate leaves the steps to each solver's rule; a manifest that
        # holds the dual-branch steps as numbers still loads, and its baseline
        # still runs at unit steps
        tmp_path, wav = workspace
        outdir = simulate(tmp_path, wav, tmp_path / "run", iters="5")
        manifest = read_manifest(outdir / "manifest.json")
        assert manifest["solver"]["tau"] is manifest["solver"]["sigma"] is None
        tau, sigma = default_steps(build_filter(manifest["k"]))
        manifest["solver"].update(tau=tau, sigma=sigma)
        (outdir / "numeric.json").write_text(json.dumps(manifest))
        outputs = {}
        for name in ("manifest", "numeric"):
            for command in ("reconstruct", "baseline"):
                files = [outdir / f"{name}-{command}.{ext}" for ext in ("wav", "csv")]
                argv = [command, str(outdir / f"{name}.json"), "--reference",
                        str(outdir / "reference.wav"), "--out", str(files[0]),
                        "--trace", str(files[1])]
                assert main(argv) == 0
                outputs[name, command] = [f.read_bytes() for f in files]
        for command in ("reconstruct", "baseline"):
            assert outputs["manifest", command] == outputs["numeric", command]


class TestBaseline:
    def test_runs_and_writes(self, workspace):
        tmp_path, wav = workspace
        outdir = simulate(tmp_path, wav, tmp_path / "run")
        rc = main(
            ["baseline", str(outdir / "manifest.json"), "--reference", str(outdir / "reference.wav")]
        )
        assert rc == 0
        assert (outdir / "xhat_baseline.wav").exists()
        assert (outdir / "trace_baseline.csv").exists()


class TestOutOfMemory:
    @pytest.mark.parametrize(
        "exc, line",
        [
            (MemoryError(), "error: MemoryError"),
            (MemoryError("Unable to allocate 7.28 TiB"), "error: Unable to allocate 7.28 TiB"),
        ],
    )
    def test_solver_memory_error_is_one_error_line(
        self, workspace, capsys, monkeypatch, exc, line
    ):
        # what a huge --iters ends in: _drive cannot allocate its traces
        tmp_path, wav = workspace
        outdir = simulate(tmp_path, wav, tmp_path / "run", iters="2")

        def out_of_memory(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "cva_solve", out_of_memory)
        monkeypatch.setattr(cli, "cpa_solve", out_of_memory)
        capsys.readouterr()
        for command in ("reconstruct", "baseline"):
            assert main([command, str(outdir / "manifest.json")]) == 1
            assert capsys.readouterr().err == line + "\n"


class TestSdrCommand:
    def test_prints_value(self, workspace, capsys):
        tmp_path, wav = workspace
        outdir = simulate(tmp_path, wav, tmp_path / "run")
        capsys.readouterr()  # drop output from the setup commands
        rc = main(["sdr", str(outdir / "reference.wav"), str(outdir / "y2.wav")])
        assert rc == 0
        printed = float(capsys.readouterr().out.strip())
        value = sdr(load_wav(outdir / "reference.wav"), load_wav(outdir / "y2.wav"))
        assert printed == pytest.approx(value, abs=1e-5)

    def test_identical_files_print_inf(self, workspace, capsys):
        tmp_path, wav = workspace
        capsys.readouterr()
        rc = main(["sdr", str(wav), str(wav)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "inf"


class TestGridCommand:
    def test_runs_config(self, tmp_path, capsys):
        cfg = {
            "synth_count": 1,
            "synth_seed": 3,
            "synth_duration_s": 0.25,
            "synth_rate_hz": 16000,
            "coarse_bits": [10],
            "fine_bits": [14],
            "k": 4,
            "frame_window": 256,
            "frame_hop": 64,
            "frame_channels": 256,
            "max_iters": 20,
            "output_dir": str(tmp_path / "grid"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["grid", str(path)])
        assert rc == 0
        assert (tmp_path / "grid" / "results.csv").exists()
        assert "1 cells (1 completed)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "failing, rc", [({8, 10}, 1), ({8}, 0)], ids=["none-completes", "one-completes"]
    )
    def test_exit_status_tells_whether_any_cell_completed(
        self, tmp_path, capsys, monkeypatch, failing, rc
    ):
        real = experiment.cva_solve

        def flaky(y1, y2, model, frame, cfg=None, reference=None):
            if model.coarse.bits in failing:
                raise ValueError("injected failure")
            return real(y1, y2, model, frame, cfg, reference)

        monkeypatch.setattr(experiment, "cva_solve", flaky)
        cfg = {
            "synth_count": 1, "synth_duration_s": 0.05, "synth_rate_hz": 8000,
            "coarse_bits": [8, 10], "fine_bits": [14], "frame_window": 64, "frame_hop": 16,
            "frame_channels": 64, "max_iters": 2, "output_dir": str(tmp_path / "grid"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["grid", str(path)]) == rc
        out, err = capsys.readouterr()
        if rc:
            assert err.startswith("error:") and "no grid cell completed" in err
            assert len(err.strip().splitlines()) == 1
        else:
            assert err == "" and "2 cells (1 completed)" in out
        rows = (tmp_path / "grid" / "results.csv").read_text().splitlines()
        assert len(rows) == 3  # the header and both cells, failed or not

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("max_iters", 10**12, "16 bytes per iteration"),
            ("filter_taps", 10**9, "longer than the padded signal"),
            ("frame_window", 10**9, "exceeds channel count"),
            ("frame_channels", 2**33, "exceeds 134217728 samples"),
            ("frame_hop", 2**40, "exceeds 134217728 samples"),
            ("synth_duration_s", 1e9, "at most 134217728 samples"),
            ("synth_rate_hz", 10**13, "at most 134217728 samples"),
        ],
    )
    def test_size_rejected_before_allocation(
        self, tmp_path, capsys, monkeypatch, key, value, message
    ):
        monkeypatch.setattr(
            experiment, "build_filter", _refuse_taps(experiment.build_filter, value)
        )
        monkeypatch.setattr(frames, "hann_window", _refuse("hann_window"))
        # the allocators each size reaches first
        if key in ("frame_channels", "frame_hop"):
            monkeypatch.setattr(experiment, "pad_to_multiple", _refuse("pad_to_multiple"))
        if key.startswith("synth_"):
            monkeypatch.setattr(experiment, "synth_sparse_signal", _refuse("synth_sparse_signal"))
        cfg = {"synth_count": 1, "synth_duration_s": 0.05, "synth_rate_hz": 8000,
               "coarse_bits": [10], "fine_bits": [14], key: value,
               "output_dir": str(tmp_path / "grid")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["grid", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "grid").exists()

    def test_repeated_bit_depth_reported(self, tmp_path, capsys):
        cfg = {"coarse_bits": [10, 10], "fine_bits": [14], "output_dir": str(tmp_path / "grid")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["grid", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'coarse_bits'" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "grid").exists()

    def test_bad_config_reports_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"coarse_bits": []}))
        assert main(["grid", str(path)]) == 1
        assert "error:" in capsys.readouterr().err
