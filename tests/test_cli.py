import json

import pytest

import seu_forge as sf
from seu_forge.cli import main


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "toy.sfm"
    assert run_cli("model", "build", "--out", str(path), "--levels", "2",
                   "--base-filters", "4", "--classes", "3", "--channels", "3",
                   "--seed", "5") == 0
    return path


def test_every_command_accepts_seed():
    import argparse
    from seu_forge.cli import build_parser

    def walk(parser, path):
        subs = [a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            opts = {o for a in parser._actions for o in a.option_strings}
            assert "--seed" in opts, path
            return
        for sub in subs:
            for name, p in sub.choices.items():
                walk(p, path + [name])

    walk(build_parser(), [])


def test_campaign_plan_prints_reference_value(capsys):
    assert run_cli("campaign", "plan", "--N", "996480000", "--e", "0.025",
                   "--t", "1.96", "--p", "0.5") == 0
    assert capsys.readouterr().out.strip() == "1537"


def test_campaign_plan_rejects_bad_domain(capsys):
    assert run_cli("campaign", "plan", "--N", "0") != 0


@pytest.mark.parametrize("t", ["nan", "inf"])
def test_campaign_plan_refuses_a_cut_off_that_is_not_finite(capsys, t):
    assert run_cli("campaign", "plan", "--N", "100", "--t", t) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: confidence cut-off t must be finite, got {t}\n"
    assert captured.out == ""


def test_sweep_with_n_refuses_a_nan_cut_off(model_path, tmp_path, capsys):
    """A NaN t once reached sweep_plan.json as ``"z_value": NaN``, which is not JSON."""
    out = tmp_path / "sweep"
    assert run_cli("campaign", "sweep", "--model", str(model_path), "--out-dir", str(out),
                   "--psets", "1", "--bits", "30", "30", "--n", "1", "--t", "nan",
                   "--images", "2", "--image-size", "16") == 1
    assert capsys.readouterr().err == "error: confidence cut-off t must be finite, got nan\n"
    assert not out.exists()


def test_prune_refuses_a_nan_threshold(model_path, tmp_path, capsys):
    out = tmp_path / "pnan.sfm"
    assert run_cli("compress", "prune", "--model", str(model_path), "--out", str(out),
                   "--threshold", "nan") == 1
    assert capsys.readouterr().err == "error: threshold must be a number, got nan\n"
    assert list(tmp_path.iterdir()) == []


def test_model_build_writes_manifest(model_path):
    with open(str(model_path) + ".manifest.json") as f:
        manifest = json.load(f)
    assert manifest["command"] == "model build"
    assert manifest["args"]["seed"] == 5
    assert "model_hash" in manifest


def test_model_info(model_path, capsys):
    assert run_cli("model", "info", "--model", str(model_path)) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["class_count"] == 3
    assert info["param_sets"][0]["pset"] == 1


def test_model_generate_reseeds(model_path, tmp_path, capsys):
    out = tmp_path / "reseeded.sfm"
    assert run_cli("model", "generate", "--model", str(model_path), "--out",
                   str(out), "--seed", "99") == 0
    a = sf.load_model(model_path)
    b = sf.load_model(out)
    assert sf.model_hash(a) != sf.model_hash(b)


def test_missing_model_is_usage_error(tmp_path, capsys):
    rc = run_cli("model", "info", "--model", str(tmp_path / "nope.sfm"))
    assert rc != 0
    assert "does not exist" in capsys.readouterr().err


def test_compress_pipeline(model_path, tmp_path, capsys):
    folded = tmp_path / "folded.sfm"
    assert run_cli("compress", "fold", "--model", str(model_path),
                   "--out", str(folded)) == 0
    assert sf.load_model(folded).flags["folded"]
    # folding twice is an error surfaced as nonzero exit
    assert run_cli("compress", "fold", "--model", str(folded),
                   "--out", str(tmp_path / "x.sfm")) != 0
    quant = tmp_path / "quant.sfm"
    assert run_cli("compress", "quantize", "--model", str(model_path), "--out",
                   str(quant), "--images", "4", "--image-size", "16") == 0
    assert sf.load_model(quant).flags["quantized"]
    pruned = tmp_path / "pruned.sfm"
    assert run_cli("compress", "prune", "--model", str(model_path), "--out",
                   str(pruned), "--keep-fraction", "0.5") == 0
    assert run_cli("compress", "prune", "--model", str(model_path), "--out",
                   str(tmp_path / "y.sfm")) == 2  # neither fraction nor threshold
    zeroed = tmp_path / "zeroed.sfm"
    assert run_cli("compress", "sparse-zero", "--model", str(model_path), "--out",
                   str(zeroed), "--abs-range", "1.0", "2.0") == 0


def test_calibrate_outputs(model_path, tmp_path):
    out = tmp_path / "cal"
    assert run_cli("calibrate", "--model", str(model_path), "--out-dir", str(out),
                   "--images", "3", "--image-size", "16") == 0
    assert (out / "positive_ratio.csv").exists()
    assert (out / "risky_exponents.csv").exists()
    assert (out / "calibration.json").exists()
    assert (out / "manifest.json").exists()
    header = (out / "positive_ratio.csv").read_text().splitlines()[0]
    assert header.startswith("Name,Pos.,Total,%")


def test_inject_one(model_path, capsys):
    assert run_cli("inject", "one", "--model", str(model_path), "--pset", "1",
                   "--element", "0", "--bit", "30", "--images", "3",
                   "--image-size", "16") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["spec"]["pset"] == 1 and out["spec"]["bit"] == 30
    assert "mean_error" in out


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_inject_one_matches_full_forward_oracle(model_path, capsys, where):
    from oracles import sweep_full_forward
    graph = sf.load_model(model_path)
    layers = [l.name for l in graph.layers if graph.layer_params(l.name)]
    layer = {"first": layers[0], "middle": layers[len(layers) // 2], "last": layers[-1]}[where]
    p = min(graph.layer_params(layer).values(), key=lambda p: p.index)
    spec = sf.FaultSpec(p.index, p.tensor.size // 2, 30, p.tensor.encoding)
    assert run_cli("inject", "one", "--model", str(model_path), "--pset", str(p.index),
                   "--element", str(spec.element), "--bit", "30", "--images", "3",
                   "--image-size", "16") == 0
    out = json.loads(capsys.readouterr().out)
    images = sf.generate_calibration_set((16, 16, 3), count=3, seed=1000, class_count=3)[0]
    assert out["spec"] == json.loads(spec.to_json())
    assert out["per_image_error"] == sweep_full_forward(graph, [spec], images)[0]


def test_inject_one_refuses_an_element_out_of_range(model_path, capsys):
    assert run_cli("inject", "one", "--model", str(model_path), "--pset", "1",
                   "--element", "1000000", "--bit", "30", "--images", "2",
                   "--image-size", "16") == 1
    assert "element 1000000 out of range" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ("inject", "one", "--pset", "99", "--element", "0", "--bit", "30"),
    ("campaign", "sweep", "--psets", "99", "--bits", "30", "31", "--n", "1")])
def test_an_unknown_pset_is_one_unquoted_error_line(model_path, tmp_path, capsys, command):
    """A KeyError's message is printed as it reads, not as its repr."""
    out = tmp_path / "out"
    extra = ("--out-dir", str(out)) if command[0] == "campaign" else ()
    assert run_cli(*command, *extra, "--model", str(model_path), "--images", "2",
                   "--image-size", "16") == 1
    captured = capsys.readouterr()
    assert captured.err == "error: no parameter set p99 (model has p1..p66)\n"
    assert captured.out == "" and not out.exists()


def test_sweep_and_report(model_path, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert run_cli("campaign", "sweep", "--model", str(model_path),
                   "--out-dir", str(out), "--psets", "1,2", "--bits", "30", "31",
                   "--n", "4", "--images", "3", "--image-size", "16",
                   "--seed", "3") == 0
    agg = (out / "sweep_aggregate.csv").read_text()
    assert agg.splitlines()[0] == "pset,bit,n,mean_error,nan_count,inf_count"
    rep = tmp_path / "rep"
    assert run_cli("report", "--inputs", str(out / "sweep_outcomes.jsonl"),
                   "--out-dir", str(rep)) == 0
    assert (rep / "report_aggregate.csv").exists()
    long = json.loads((rep / "report_long.json").read_text())
    assert all(set(r) == {"variant", "pset", "bit", "metric", "value"} for r in long)


def test_report_empty_log(tmp_path):
    log = tmp_path / "empty.jsonl"
    log.write_text("")
    out = tmp_path / "rep"
    assert run_cli("report", "--inputs", str(log), "--out-dir", str(out)) == 0
    lines = (out / "report_aggregate.csv").read_text().splitlines()
    assert lines == ["variant,pset,bit,n,mean_error,nan_count,inf_count"]


@pytest.mark.parametrize("edit,message", [
    (lambda d: d.__setitem__("extra", 1), "fault outcome has unknown key 'extra'"),
    (lambda d: d.__delitem__("faulty_bits"), "fault outcome is missing key 'faulty_bits'"),
    (lambda d: d["spec"].__setitem__("extra", 1), "fault spec has unknown key 'extra'"),
    (lambda d: d["spec"].__delitem__("bit"), "fault spec is missing key 'bit'"),
    (lambda d: d.__setitem__("mean_error", "abc"),
     "fault outcome field 'mean_error' is \"abc\", not a number"),
    (lambda d: d.__setitem__("produced_nan", "no"),
     "fault outcome field 'produced_nan' is \"no\", not true or false"),
    (lambda d: d["spec"].__setitem__("pset", "1"), "fault spec field 'pset' is \"1\", not an int"),
    (lambda d: d.__setitem__("original_value", "abc"),
     "fault outcome field 'original_value' is \"abc\", not a float repr"),
    (lambda d: d.__setitem__("faulty_value", "2.0x"),
     "fault outcome field 'faulty_value' is \"2.0x\", not a float repr"),
    (lambda d: d.__setitem__("mean_error", None),
     "fault outcome field 'mean_error' is null, not an error rate in [0, 100]"),
], ids=["extra_key", "missing_key", "spec_extra_key", "spec_missing_key",
        "string_mean_error", "string_flag", "string_pset", "bad_original_value",
        "bad_faulty_value", "evaluated_without_a_mean"])
def test_report_refuses_a_bad_outcome_line(tmp_path, capsys, edit, message):
    spec = sf.FaultSpec(pset=1, element=0, bit=30, encoding="f32")
    good = sf.FaultOutcome(spec, 0, 1 << 30, 0.0, 2.0, per_image_error=[0.5],
                           mean_error=0.5).to_json()
    bad = json.loads(good)
    edit(bad)
    log = tmp_path / "sweep_outcomes.jsonl"
    log.write_text(f"{good}\n\n{json.dumps(bad)}\n")
    assert run_cli("report", "--inputs", str(log), "--out-dir", str(tmp_path / "rep")) == 1
    err = capsys.readouterr().err
    assert err == f"error: {log}:3: {message}\n"
    assert not (tmp_path / "rep").exists()


def test_sweep_bits_on_int_model_usage_error(model_path, tmp_path, capsys):
    quant = tmp_path / "q.sfm"
    run_cli("compress", "quantize", "--model", str(model_path), "--out", str(quant),
            "--images", "3", "--image-size", "16")
    rc = run_cli("campaign", "sweep", "--model", str(quant), "--out-dir",
                 str(tmp_path / "s"), "--roles", "conv_kernel", "--bits", "23", "30",
                 "--n", "2", "--images", "2", "--image-size", "16")
    assert rc != 0
    assert "restrict --bits" in capsys.readouterr().err


def test_multibit_requires_quantized(model_path, tmp_path, capsys):
    rc = run_cli("campaign", "multibit", "--model", str(model_path),
                 "--out-dir", str(tmp_path / "mb"), "--counts", "1",
                 "--repetitions", "2")
    assert rc == 2
    assert "quantized" in capsys.readouterr().err


def test_multibit_refuses_repeated_counts(model_path, tmp_path, capsys):
    quant = tmp_path / "quant.sfm"
    images = sf.generate_calibration_set((8, 8, 3), count=2, seed=1, class_count=3)[0]
    sf.save_model(sf.quantize_ptq(sf.load_model(model_path), images), quant)
    rc = run_cli("campaign", "multibit", "--model", str(quant),
                 "--out-dir", str(tmp_path / "mb"), "--counts", "3,1,3",
                 "--repetitions", "2", "--images", "2", "--image-size", "8")
    assert rc == 1
    assert "flip count 3 is repeated" in capsys.readouterr().err
    assert not (tmp_path / "mb").exists()


def test_predict_commands(model_path, capsys):
    assert run_cli("predict", "bit30",
                   "--shares", "0,44.91,4.41,26.95,7.47,16.27",
                   "--signs=-1,1,-1,1,-1,1") == 0
    assert capsys.readouterr().out.strip() == "37.29"
    assert run_cli("predict", "signbit",
                   "--shares", "0,45.09,4.28,27.58,6.91,16.14",
                   "--signs=-1,1,-1,1,-1,1") == 0
    assert capsys.readouterr().out.strip() == "62.94"
    assert run_cli("predict", "bit30", "--model", str(model_path),
                   "--images", "3", "--image-size", "16") == 0
    float(capsys.readouterr().out.strip())


def test_protect_apply_idempotent(model_path, tmp_path, capsys):
    p1 = tmp_path / "p1.sfm"
    assert run_cli("protect", "apply", "--model", str(model_path), "--out", str(p1),
                   "--pt", "2", "--report", str(tmp_path / "r1.jsonl")) == 0
    first = json.loads(capsys.readouterr().out)
    summary_csv = (tmp_path / "r1_summary.csv").read_text().splitlines()
    assert summary_csv[0].startswith("variant,pt,candidates")
    assert summary_csv[1].startswith("toy,PT2,")
    p2 = tmp_path / "p2.sfm"
    assert run_cli("protect", "apply", "--model", str(p1), "--out", str(p2),
                   "--pt", "2") == 0
    second = json.loads(capsys.readouterr().out)
    assert second["protected"] == 0
    assert first["protected"] >= 0
    assert sf.model_hash(sf.load_model(p1)) == sf.model_hash(sf.load_model(p2))


def test_protect_evaluate(model_path, tmp_path):
    prot = tmp_path / "prot.sfm"
    run_cli("protect", "apply", "--model", str(model_path), "--out", str(prot),
            "--pt", "2")
    out = tmp_path / "eval"
    assert run_cli("protect", "evaluate", "--original", str(model_path),
                   "--protected", str(prot), "--out-dir", str(out),
                   "--images", "2", "--image-size", "8") == 0
    ev = json.loads((out / "protection_eval.json").read_text())
    assert "faultless" in ev and "per_bit" in ev


def test_rerun_byte_identical_reports(model_path, tmp_path):
    out = tmp_path / "sweep"
    names = ("sweep_plan.json", "sweep_outcomes.jsonl", "sweep_aggregate.csv",
             "manifest.json")

    def run_once():
        assert run_cli("campaign", "sweep", "--model", str(model_path),
                       "--out-dir", str(out), "--psets", "1", "--bits", "29", "31",
                       "--n", "3", "--images", "2", "--image-size", "16",
                       "--seed", "11") == 0
        return {n: (out / n).read_bytes() for n in names}

    assert run_once() == run_once()


def test_protect_evaluate_reports_equal_at_any_worker_count(model_path, tmp_path):
    prot = tmp_path / "prot.sfm"
    assert run_cli("protect", "apply", "--model", str(model_path), "--out", str(prot),
                   "--pt", "2") == 0
    reports = []
    for workers in ("1", "2"):
        out = tmp_path / f"eval{workers}"
        assert run_cli("protect", "evaluate", "--original", str(model_path),
                       "--protected", str(prot), "--out-dir", str(out), "--images", "2",
                       "--image-size", "8", "--workers", workers) == 0
        reports.append((out / "protection_eval.json").read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["per_bit"]


def test_sweep_manifest_counts_only_evaluated_faults(model_path, tmp_path, monkeypatch):
    import dataclasses

    from seu_forge import campaign
    real = campaign.generate_sweep_faults

    def second_out_of_range(graph, plan):
        specs = real(graph, plan)
        specs[1] = dataclasses.replace(specs[1], element=10**6)
        return specs

    monkeypatch.setattr(campaign, "generate_sweep_faults", second_out_of_range)
    out = tmp_path / "sweep"
    assert run_cli("campaign", "sweep", "--model", str(model_path), "--out-dir", str(out),
                   "--psets", "1", "--bits", "30", "30", "--n", "3", "--images", "2",
                   "--image-size", "16") == 0
    assert json.loads((out / "manifest.json").read_text())["faults_evaluated"] == 2
    assert "evaluation_error" in (out / "sweep_outcomes.jsonl").read_text()


def test_sweep_refuses_n_zero(model_path, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert run_cli("campaign", "sweep", "--model", str(model_path), "--out-dir", str(out),
                   "--psets", "2", "--bits", "30", "31", "--n", "0", "--images", "2",
                   "--image-size", "16") == 1
    assert "must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_with_n_refuses_bad_sizing(model_path, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert run_cli("campaign", "sweep", "--model", str(model_path), "--out-dir", str(out),
                   "--psets", "1", "--bits", "30", "30", "--n", "1", "--e", "5", "--t", "-2",
                   "--p", "7", "--images", "2", "--image-size", "16") == 1
    assert "error margin e must be in (0, 1), got 5" in capsys.readouterr().err
    assert not (out / "sweep_plan.json").exists()


def test_sweep_refuses_an_unknown_role(model_path, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert run_cli("campaign", "sweep", "--model", str(model_path), "--out-dir", str(out),
                   "--roles", "conv_kernal,conv_bias", "--bits", "30", "31", "--n", "1",
                   "--images", "2", "--image-size", "16") == 1
    assert "unknown parameter role 'conv_kernal'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option,value,code,message", [
    ("--psets", "", 2, "--psets needs comma-separated ints, got ''"),
    ("--psets", "1,x", 2, "--psets needs comma-separated ints, got '1,x'"),
    ("--psets", "1,,2", 2, "--psets needs comma-separated ints, got '1,,2'"),
    ("--roles", "", 1, "unknown parameter role ''"),
], ids=["psets-empty", "psets-not-int", "psets-empty-item", "roles-empty"])
def test_sweep_refuses_an_empty_or_unreadable_list(model_path, tmp_path, capsys, option,
                                                    value, code, message):
    """An empty --psets or --roles list, or a --psets item that is not an int,
    is refused in one error line: no default targets, nothing written."""
    out = tmp_path / "sweep"
    assert run_cli("campaign", "sweep", "--model", str(model_path), "--out-dir", str(out),
                   option, value, "--bits", "30", "31", "--n", "1", "--images", "2",
                   "--image-size", "16") == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (("campaign", "multibit", "--counts", ""), "--counts needs comma-separated ints, got ''"),
    (("campaign", "multibit", "--counts", "1,x"),
     "--counts needs comma-separated ints, got '1,x'"),
    (("campaign", "multibit", "--counts", "1,,2"),
     "--counts needs comma-separated ints, got '1,,2'"),
    (("predict", "bit30", "--shares", "", "--signs", ""),
     "--shares needs comma-separated floats, got ''"),
    (("predict", "bit30", "--shares", "30,70", "--signs", "1,"),
     "--signs needs comma-separated floats, got '1,'"),
    (("predict", "signbit", "--shares", "inf,50", "--signs", "1,-1"),
     "--shares needs finite numbers, got 'inf,50'"),
    (("predict", "signbit", "--shares", "nan,50", "--signs", "1,-1"),
     "--shares needs finite numbers, got 'nan,50'"),
    (("predict", "bit30", "--shares", "101,-1", "--signs", "1,-1"),
     "--shares must lie in [0, 100], got '101,-1'"),
    (("predict", "bit30", "--shares", "30,70", "--signs", "1,-inf"),
     "--signs needs finite numbers, got '1,-inf'"),
], ids=["counts-empty", "counts-not-int", "counts-empty-item", "shares-empty",
        "signs-empty-item", "shares-inf", "shares-nan", "shares-out-of-range", "signs-inf"])
def test_list_options_refused_before_the_model(model_path, tmp_path, capsys, monkeypatch,
                                               argv, message):
    """A comma list with an empty item, an item that is not a number, or a share
    or sign that is not finite is a usage error naming its option, raised
    before any model is loaded."""
    from seu_forge import cli

    def load(path):
        raise AssertionError("a model was loaded")

    monkeypatch.setattr(cli, "_load", load)
    out = tmp_path / "out"
    assert run_cli(*argv, "--model", str(model_path),
                   *(("--out-dir", str(out)) if argv[0] == "campaign" else ())) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("option", ["--seed", "--images-seed"])
def test_negative_seed_refused(model_path, tmp_path, capsys, option):
    """A negative seed is a usage error naming its option; nothing is written."""
    out = tmp_path / "out"
    argv = {"--seed": ("model", "build", "--out", str(out)),
            "--images-seed": ("campaign", "sweep", "--model", str(model_path),
                              "--out-dir", str(out), "--psets", "1", "--bits", "30", "30",
                              "--n", "1", "--images", "2", "--image-size", "16")}[option]
    assert run_cli(*argv, option, "-1") == 2
    assert capsys.readouterr().err == f"error: {option} must be >= 0, got -1\n"
    assert not out.exists() and not tmp_path.joinpath("out.manifest.json").exists()


def test_workers_default_from_environment(model_path, tmp_path, monkeypatch):
    """SEU_FORGE_WORKERS sets the worker count when --workers is not given,
    and the report files do not change with it."""
    from seu_forge import campaign
    seen, real = [], campaign._run_chunks

    def spy(worker, jobs, workers):
        seen.append(workers)
        return real(worker, jobs, workers)

    monkeypatch.setattr(campaign, "_run_chunks", spy)
    monkeypatch.setenv("SEU_FORGE_WORKERS", "2")
    reports = {}
    for tag, extra in (("env", ()), ("one", ("--workers", "1"))):
        out = tmp_path / tag
        assert run_cli("campaign", "sweep", "--model", str(model_path), "--out-dir", str(out),
                       "--psets", "1,2", "--bits", "30", "31", "--n", "3", "--images", "2",
                       "--image-size", "16", "--seed", "3", *extra) == 0
        reports[tag] = {f.name: f.read_bytes() for f in sorted(out.iterdir())
                        if f.name != "manifest.json"}
    assert seen == [2, 1]
    assert reports["env"] == reports["one"]
    assert len(reports["env"]) == 3


@pytest.mark.parametrize("command", ["sweep", "multibit", "evaluate"])
@pytest.mark.parametrize("workers,env,message", [
    ("0", None, "--workers must be >= 1, got 0"),
    ("-3", "2", "--workers must be >= 1, got -3"),
    (None, "two", "SEU_FORGE_WORKERS must be a positive integer, got 'two'"),
    (None, "0", "SEU_FORGE_WORKERS must be a positive integer, got '0'"),
])
def test_worker_count_below_one_refused(model_path, tmp_path, monkeypatch, capsys, command,
                                        workers, env, message):
    """A worker count below 1, given by --workers or by SEU_FORGE_WORKERS, is a
    usage error that names its source: exit 2, nothing written."""
    if env is None:
        monkeypatch.delenv("SEU_FORGE_WORKERS", raising=False)
    else:
        monkeypatch.setenv("SEU_FORGE_WORKERS", env)
    out = tmp_path / "out"
    argv = {"sweep": ("campaign", "sweep", "--model", str(model_path), "--psets", "1",
                      "--bits", "30", "30", "--n", "1"),
            "multibit": ("campaign", "multibit", "--model", str(model_path),
                         "--counts", "1", "--repetitions", "1"),
            "evaluate": ("protect", "evaluate", "--original", str(model_path),
                         "--protected", str(model_path))}[command]
    extra = () if workers is None else ("--workers", workers)
    assert run_cli(*argv, "--out-dir", str(out), "--images", "1", "--image-size", "16",
                   *extra) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lo,hi", [("2.0", "1.0"), ("1.0", "1.0"), ("nan", "2.0")])
def test_sparse_zero_empty_range_refused(model_path, tmp_path, capsys, lo, hi):
    """An --abs-range [LO, HI) that holds no value is a usage error naming the
    option: exit 2, no model or manifest written."""
    out = tmp_path / "zeroed.sfm"
    assert run_cli("compress", "sparse-zero", "--model", str(model_path), "--out",
                   str(out), "--abs-range", lo, hi) == 2
    assert "--abs-range" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["calibrate", "sweep", "evaluate"])
@pytest.mark.parametrize("option,value", [("--image-size", "0"), ("--image-size", "-16"),
                                          ("--images", "0")])
def test_image_options_below_one_refused(model_path, tmp_path, capsys, command, option,
                                         value):
    """An image count or side below 1 is a usage error that names its option:
    exit 2, nothing written, the output directory included."""
    out = tmp_path / "out"
    argv = {"calibrate": ("calibrate", "--model", str(model_path)),
            "sweep": ("campaign", "sweep", "--model", str(model_path), "--psets", "1",
                      "--bits", "30", "30", "--n", "1"),
            "evaluate": ("protect", "evaluate", "--original", str(model_path),
                         "--protected", str(model_path))}[command]
    images = {"--images": "2", "--image-size": "16", option: value}
    assert run_cli(*argv, "--out-dir", str(out), *(x for kv in images.items() for x in kv)) == 2
    assert f"{option} must be >= 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_protect_evaluate_refuses_models_that_cannot_be_paired(model_path, tmp_path, capsys):
    """The protected model must have the original's parameter table: a model
    with another depth is refused, and no report is written."""
    deeper = tmp_path / "deeper.sfm"
    assert run_cli("model", "build", "--out", str(deeper), "--levels", "3",
                   "--base-filters", "4", "--classes", "3", "--channels", "3") == 0
    out = tmp_path / "eval"
    assert run_cli("protect", "evaluate", "--original", str(model_path), "--protected",
                   str(deeper), "--out-dir", str(out), "--images", "2",
                   "--image-size", "16") == 1
    assert "parameter tables differ at p37 " in capsys.readouterr().err
    assert not (out / "protection_eval.json").exists()


def test_protect_evaluate_refuses_a_quantized_model(model_path, tmp_path, capsys):
    """A quantized model holds no f32 set to protect: protect evaluate refuses
    it, as protect apply does, and writes no report."""
    quant = tmp_path / "q.sfm"
    assert run_cli("compress", "quantize", "--model", str(model_path), "--out", str(quant),
                   "--images", "3", "--image-size", "16") == 0
    out = tmp_path / "eval"
    assert run_cli("protect", "evaluate", "--original", str(quant), "--protected",
                   str(quant), "--out-dir", str(out), "--images", "3",
                   "--image-size", "16") == 1
    assert "protection applies to float graphs" in capsys.readouterr().err
    assert not (out / "protection_eval.json").exists()


@pytest.mark.parametrize("command", ["build", "generate"])
@pytest.mark.parametrize("options,message", [
    (("--kernel-scale", "nan"), "kernel_scale"),
    (("--kernel-scale", "inf"), "kernel_scale"),
    (("--kernel-scale", "-1"), "kernel_scale"),
    (("--gamma-lo", "nan"), "gamma_range"),
    (("--gamma-lo", "2", "--gamma-hi", "1"), "gamma_range"),
    (("--positive-bias-fraction", "3"), "positive_bias_fraction"),
], ids=["scale-nan", "scale-inf", "scale-negative", "gamma-lo-nan", "gamma-lo-above-hi",
        "fraction-3"])
def test_bad_weight_options_refused(model_path, tmp_path, capsys, command, options, message):
    """A weight option no weights can be drawn from exits 1 with one error
    line naming it, and writes no model."""
    out = tmp_path / "bad.sfm"
    source = ("--levels", "2") if command == "build" else ("--model", str(model_path))
    assert run_cli("model", command, *source, "--out", str(out), *options) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message} must be") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_protect_apply_refuses_a_missing_report_directory(model_path, tmp_path, capsys):
    """A --report whose directory does not exist is refused before the
    protected model is written."""
    out = tmp_path / "p.sfm"
    report = tmp_path / "missing" / "r.jsonl"
    assert run_cli("protect", "apply", "--model", str(model_path), "--out", str(out),
                   "--pt", "2", "--report", str(report)) == 2
    assert capsys.readouterr().err == f"error: the directory of {str(report)!r} does not exist\n"
    assert not out.exists() and list(tmp_path.iterdir()) == []
