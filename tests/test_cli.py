import json
from dataclasses import fields
from pathlib import Path

import pytest

from conftest import pattern_config
from specmtp.checkpoint import save_checkpoint
from specmtp.cli import (
    EXIT_DIVERGENCE,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    build_parser,
    main,
    parse_config_text,
    render_config,
)
from specmtp.model import init_model
from specmtp.sampler import init_sampler
from specmtp.training import CorpusSpec, TrainConfig, checkpoint_meta

TINY_CONFIG = """
[corpus]
task = pattern
size = 16
seq_len = 12
period = 4
alphabet = abcd

[model]
d_model = 16
n_layers = 1
n_heads = 2
d_ff = 32
k_masks = 2
lora_rank = 2
max_position = 128

[train]
total_steps = 4
warmup_steps = 0
batch_size = 2
learning_rate = 0.001
pretrain_steps = 4
"""

# Every CorpusSpec and TrainConfig key, each away from its default.
ALL_KEYS_CONFIG = """
[corpus]
task = arithmetic
size = 10
seed = 3
seq_len = 20
period = 3
alphabet = xyz
digits = 3
path = notes.txt

[model]
d_model = 24
n_layers = 3
n_heads = 3
d_ff = 48
k_masks = 3
lora_rank = 2
max_position = 64

[train]
learning_rate = 0.005
warmup_steps = 5
total_steps = 50
batch_size = 3
weight_decay = 0.1
beta1 = 0.8
beta2 = 0.99
adam_eps = 1e-06
seed = 7
pretrain_steps = 10
pretrain_lr = 0.01
eval_every = 5
eval_prompts = 2
eval_prompt_len = 6
eval_max_steps = 4
divergence_factor = 5.0
divergence_patience = 9

[loss]
base = 0.5
sampler = 0.25
lcm = 2.0
use_sampler = false
gated = false
"""


def _untrained_ckpt(tmp_path_factory, **over):
    cfg = pattern_config(total_steps=1, pretrain_steps=0, warmup_steps=0, **over)
    vocab = cfg.corpus.vocab(cfg.k_masks)
    model = init_model(cfg.model_config(vocab.charset), 0)
    sampler = init_sampler(cfg.d_model, 1)
    path = tmp_path_factory.mktemp("ckpt") / "untrained.ckpt"
    save_checkpoint(model, sampler, path, extra_meta=checkpoint_meta(cfg, vocab))
    return path


@pytest.fixture(scope="module")
def untrained_ckpt(tmp_path_factory):
    return _untrained_ckpt(tmp_path_factory)


@pytest.fixture(scope="module")
def short_context_ckpt(tmp_path_factory):
    return _untrained_ckpt(tmp_path_factory, max_position=16)


@pytest.fixture(scope="module")
def trained_ckpt(tmp_path_factory, trained_full):
    path = tmp_path_factory.mktemp("ckpt") / "trained.ckpt"
    save_checkpoint(
        trained_full.model,
        trained_full.sampler,
        path,
        extra_meta=checkpoint_meta(trained_full.config, trained_full.vocab),
    )
    return path


# ---------------------------------------------------------------------------
# Config file handling
# ---------------------------------------------------------------------------


def test_config_roundtrip():
    cfg = parse_config_text(TINY_CONFIG)
    assert cfg.corpus.alphabet == "abcd" and cfg.total_steps == 4
    again = parse_config_text(render_config(cfg))
    assert again == cfg

    full = parse_config_text(ALL_KEYS_CONFIG)
    default = TrainConfig()
    for f in fields(CorpusSpec):
        assert getattr(full.corpus, f.name) != getattr(default.corpus, f.name), f.name
    for f in fields(TrainConfig):
        assert getattr(full, f.name) != getattr(default, f.name), f.name
    assert parse_config_text(render_config(full)) == full


def test_config_unknown_key_is_fatal():
    with pytest.raises(UsageError):
        parse_config_text("[train]\nlerning_rate = 0.1\n")
    with pytest.raises(UsageError):
        parse_config_text("[optimizer]\nlr = 0.1\n")
    with pytest.raises(UsageError):
        parse_config_text("[loss]\nuse_sampler = maybe\n")
    with pytest.raises(UsageError):
        parse_config_text("[train]\ntotal_steps = 0\nwarmup_steps = 0\n")
    with pytest.raises(UsageError):
        parse_config_text("[train]\nbatch_size = 0\n")
    with pytest.raises(UsageError):
        parse_config_text("[corpus]\nsize = 0\n")
    with pytest.raises(UsageError):
        parse_config_text("[corpus]\nperiod = 0\n")
    for model, field in (
        ("n_heads = 0", "n_heads"),
        ("d_model = 0", "d_model"),
        ("d_model = 15\nn_heads = 3", "d_model"),
        ("max_position = 0", "max_position"),
        ("d_ff = 0", "d_ff"),
    ):
        with pytest.raises(UsageError, match=field):
            parse_config_text(f"[model]\n{model}\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def test_gen_data_arithmetic_recompute(tmp_path):
    out = tmp_path / "corpus.json"
    code = main(
        ["gen-data", "--task", "arithmetic", "--size", "10", "--seed", "3", "--out", str(out)]
    )
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["task"] == "arithmetic"
    for rec in payload["sequences"]:
        body = rec["text"].replace("<bos>", "").replace("<eos>", "")
        lhs, ans = body.split("=")
        a, b = lhs.split("+")
        assert int(a) + int(b) == int(ans)


def test_gen_data_reads_a_file_task_once(tmp_path, monkeypatch, capsys):
    # The corpus and its charset come from one read of the file.
    doc = tmp_path / "doc.txt"
    doc.write_text("the quick brown fox jumps over the lazy dog. " * 4)
    reads = []
    original = Path.read_text

    def counting(self, *args, **kwargs):
        reads.append(self == doc)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting)
    out = tmp_path / "corpus.json"
    argv = ["gen-data", "--task", "file", "--path", str(doc), "--size", "4", "--seq-len", "12", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert reads == [True]
    monkeypatch.undo()
    assert json.loads(out.read_text())["charset"] == "".join(sorted(set(doc.read_text())))
    capsys.readouterr()


def test_gen_data_flags_are_the_corpus_spec_fields():
    # One flag per CorpusSpec field, with the dataclass default and type.
    args = build_parser().parse_args(["gen-data", "--task", "pattern", "--out", "c.json"])
    default = CorpusSpec()
    for f in fields(CorpusSpec):
        if f.name != "task":
            assert getattr(args, f.name) == getattr(default, f.name), f.name
    args = build_parser().parse_args(["gen-data", "--task", "file", "--seq-len", "7", "--path", "a.txt", "--out", "c"])
    assert (args.task, args.seq_len, args.path) == ("file", 7, "a.txt")


@pytest.mark.parametrize(
    "corpus, message",
    [
        pytest.param("task = file", "corpus task 'file' needs a path", id="file-without-path"),
        pytest.param("task = poem", "unknown corpus task 'poem'", id="unknown-task"),
    ],
)
def test_corpus_task_without_its_input_is_usage_error_before_writing(tmp_path, capsys, corpus, message):
    out = tmp_path / "corpus.json"
    if corpus == "task = file":
        assert main(["gen-data", "--task", "file", "--out", str(out)]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()
    config = tmp_path / "bad.cfg"
    config.write_text(f"[corpus]\n{corpus}\n", encoding="utf-8")
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(run_dir), "--quiet"]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not run_dir.exists()


@pytest.mark.parametrize("flag", ["--size", "--period"])
def test_gen_data_zero_size_or_period_is_usage_error(tmp_path, capsys, flag):
    out = tmp_path / "corpus.json"
    code = main(["gen-data", "--task", "pattern", flag, "0", "--out", str(out)])
    assert code == EXIT_USAGE
    assert "size and period must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--task", "pattern", "--seq-len", "0"], "corpus seq_len (--seq-len) must be >= 1, got 0"),
        (["--task", "pattern", "--alphabet", ""], "corpus alphabet (--alphabet) must not be empty"),
        (["--task", "arithmetic", "--digits", "-1"], "corpus digits (--digits) must be >= 1, got -1"),
        (["--task", "arithmetic", "--digits", "0"], "corpus digits (--digits) must be >= 1, got 0"),
    ],
    ids=["seq-len-0", "empty-alphabet", "digits-negative", "digits-0"],
)
def test_gen_data_bad_corpus_field_is_usage_error_naming_its_flag(tmp_path, capsys, argv, message):
    out = tmp_path / "corpus.json"
    assert main(["gen-data", *argv, "--size", "2", "--out", str(out)]) == EXIT_USAGE
    assert f"usage error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "corpus, message",
    [
        ("task = pattern\nseq_len = 0", "corpus seq_len (--seq-len) must be >= 1, got 0"),
        ("task = file\npath = {short}\nseq_len = 8", "file shorter than one window"),
    ],
    ids=["seq-len-0", "file-shorter-than-seq-len"],
)
def test_train_checks_its_corpus_before_making_the_run_directory(tmp_path, capsys, corpus, message):
    short = tmp_path / "short.txt"
    short.write_text("abc", encoding="utf-8")
    config = tmp_path / "bad.cfg"
    config.write_text(f"[corpus]\n{corpus.format(short=short)}\n", encoding="utf-8")
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(run_dir), "--quiet"]) == EXIT_USAGE
    assert f"usage error: {message}" in capsys.readouterr().err
    assert not run_dir.exists()


@pytest.mark.parametrize(
    "lines, message",
    [
        ("[loss]\nbase = -1", "[loss] base must be finite and >= 0, got -1.0"),
        ("[loss]\nlcm = inf", "[loss] lcm must be finite and >= 0, got inf"),
        ("[train]\nlearning_rate = nan", "[train] learning_rate must be finite and > 0, got nan"),
        ("[train]\npretrain_lr = nan", "[train] pretrain_lr must be finite and > 0, got nan"),
        ("[train]\nadam_eps = 0", "[train] adam_eps must be finite and > 0, got 0.0"),
        ("[train]\nbeta1 = 1.5", "[train] beta1 must be in [0, 1), got 1.5"),
        ("[train]\nbeta2 = 1.0", "[train] beta2 must be in [0, 1), got 1.0"),
        ("[train]\nweight_decay = -5", "[train] weight_decay must be finite and >= 0, got -5.0"),
        (
            "[train]\neval_every = 1\neval_prompts = 0",
            "[train] eval_prompts must be >= 1, got 0",
        ),
        ("[train]\neval_every = -2", "[train] eval_every must be finite and >= 0, got -2"),
        ("[train]\ndivergence_factor = nan", "[train] divergence_factor must be finite and > 0, got nan"),
        ("[train]\nwarmup_steps = -5", "[train] warmup_steps must be finite and >= 0, got -5"),
        ("[train]\npretrain_steps = -3", "[train] pretrain_steps must be finite and >= 0, got -3"),
        ("[train]\ndivergence_patience = 0", "[train] divergence_patience must be >= 1, got 0"),
    ],
    ids=[
        "loss-base-negative", "loss-lcm-inf", "learning-rate-nan", "pretrain-lr-nan", "adam-eps-0",
        "beta1-above-1", "beta2-1", "weight-decay-negative", "eval-without-prompts",
        "eval-every-negative", "divergence-factor-nan", "warmup-steps-negative", "pretrain-steps-negative",
        "divergence-patience-0",
    ],
)
def test_train_rejects_bad_optimizer_and_loss_fields_before_writing(tmp_path, capsys, lines, message):
    # Each of these trained on, diverged at step 0 or failed mid-run, and
    # left a run directory behind; a NaN divergence factor never diverged.
    config = tmp_path / "bad.cfg"
    config.write_text(f"{TINY_CONFIG}\n{lines}\n", encoding="utf-8")
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(run_dir), "--quiet"]) == EXIT_USAGE
    assert f"usage error: {message}" in capsys.readouterr().err
    assert not run_dir.exists()


def test_train_builds_its_corpus_once(tmp_path, capsys, monkeypatch):
    # The corpus check before the run directory exists builds the corpus
    # that train() then trains on, with pretraining too.
    import specmtp.training as training

    calls = []
    original = training.generate_corpus

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(training, "generate_corpus", counting)
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(TINY_CONFIG)
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run"), "--quiet"]) == EXIT_OK
    assert len(calls) == 1
    capsys.readouterr()


def test_train_run_dir_and_reproducible_metrics(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(TINY_CONFIG)
    run1 = tmp_path / "run1"
    assert main(["train", "--config", str(cfg_path), "--out", str(run1), "--quiet"]) == EXIT_OK
    assert (run1 / "config.txt").exists()
    assert (run1 / "model.ckpt").exists()
    metrics1 = (run1 / "metrics.csv").read_text().splitlines()
    assert metrics1[0] == "step,base_ce,sampler_ce,lcm,total,ntp_only_ce,lr,wall_ms"
    assert len(metrics1) == 1 + 4

    # Retrain from the echoed config: identical metrics modulo wall time.
    run2 = tmp_path / "run2"
    assert main(
        ["train", "--config", str(run1 / "config.txt"), "--out", str(run2), "--quiet"]
    ) == EXIT_OK
    strip = lambda lines: [",".join(l.split(",")[:-1]) for l in lines]
    metrics2 = (run2 / "metrics.csv").read_text().splitlines()
    assert strip(metrics1) == strip(metrics2)
    capsys.readouterr()


def test_train_divergence_exit_code(tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(TINY_CONFIG.replace("learning_rate = 0.001", "learning_rate = 1e6")
                        .replace("total_steps = 4", "total_steps = 50"))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "r"), "--quiet"]) == EXIT_DIVERGENCE


def test_decode_deterministic_output(trained_ckpt, capsys):
    argv = [
        "decode", "--ckpt", str(trained_ckpt), "--prompt", "abcdabcd",
        "--strategy", "quadratic", "--k", "4", "--max-steps", "6",
    ]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == first
    assert "rate=" in first


def test_decode_greedy_strategy(trained_ckpt, capsys):
    code = main(
        ["decode", "--ckpt", str(trained_ckpt), "--prompt", "abab", "--strategy", "greedy",
         "--max-new", "6"]
    )
    assert code == EXIT_OK
    assert "rate=1.0" in capsys.readouterr().out


def test_bench_structure_and_csv(trained_ckpt, tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(
        ["bench", "--ckpt", str(trained_ckpt), "--suite", "pattern", "--prompts", "4",
         "--k-range", "1-4", "--max-steps", "5", "--ablate", "--out", str(out)]
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "task" and "rate_mean" in header
    rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
    # 4 k values x 2 strategies x 2 sampler modes.
    assert len(rows) == 16
    assert sorted({r["k_eval"] for r in rows}) == ["1", "2", "3", "4"]
    for r in rows:
        assert 1.0 <= float(r["rate_mean"]) <= int(r["k_eval"]) + 1
    ks = [int(r["k_eval"]) for r in rows]
    assert ks == sorted(ks)
    capsys.readouterr()


def test_probe_command(trained_ckpt, capsys):
    code = main(
        ["probe", "--ckpt", str(trained_ckpt), "--prompt", "abcdabcd", "--future", "abcd"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "median rank" in out


def test_probe_k_beyond_masks_is_usage_error(untrained_ckpt, capsys):
    code = main(
        ["probe", "--ckpt", str(untrained_ckpt), "--prompt", "abcd", "--future", "abc",
         "--k", "5"]
    )
    assert code == EXIT_USAGE
    assert "--k 5 must stay within 1..4" in capsys.readouterr().err


def test_verify_untrained_checkpoint_exit_zero(untrained_ckpt, capsys):
    code = main(
        ["verify", "--ckpt", str(untrained_ckpt), "--suite", "random", "--prompts", "8",
         "--k", "3", "--max-steps", "4"]
    )
    assert code == EXIT_OK
    assert "match greedy" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["decode", "--prompt", "ab", "--strategy", "greedy", "--max-new", "20"],
        ["decode", "--prompt", "ab", "--strategy", "linear", "--max-steps", "20"],
        ["decode", "--prompt", "ab", "--strategy", "quadratic", "--max-steps", "20"],
        ["decode", "--prompt", "abcdabcdabcdab", "--strategy", "quadratic"],
        ["verify", "--suite", "random", "--prompts", "4", "--prompt-len", "2", "--max-steps", "20"],
    ],
)
def test_decoding_up_to_max_position_exits_zero(short_context_ckpt, capsys, argv):
    # max_position 16: decoding stops at the position limit instead of
    # failing partway. A 15-token prompt leaves no room to speculate, so its
    # steps take greedy's causal layout.
    assert main(argv[:1] + ["--ckpt", str(short_context_ckpt)] + argv[1:]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_bench_on_prompt_with_no_room_to_speculate_exits_zero(short_context_ckpt, tmp_path, capsys):
    # With its BOS, a 14-character prompt is 15 tokens: no k = 4 speculative
    # layout fits in max_position 16, so every step is greedy's causal one.
    suite = tmp_path / "long_prompt.txt"
    suite.write_text("abcdabcdabcdab\n", encoding="utf-8")
    out = tmp_path / "bench.csv"
    argv = ["bench", "--ckpt", str(short_context_ckpt), "--suite", str(suite),
            "--k-range", "4", "--strategies", "quadratic", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""
    header, row = out.read_text(encoding="utf-8").splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["k_eval"] == "4"
    assert 1.0 <= float(fields["rate_mean"]) <= 4 + 1


@pytest.mark.parametrize(
    "argv",
    [
        ["decode", "--prompt", "abcdabcdabcdabcd", "--strategy", "greedy"],
        ["decode", "--prompt", "abcdabcdabcdabcd", "--strategy", "quadratic"],
        ["verify", "--suite", "random", "--prompts", "2", "--prompt-len", "16"],
    ],
)
def test_prompt_longer_than_max_position_is_usage_error(short_context_ckpt, capsys, argv):
    # With its leading BOS, a 16-character prompt is 17 tokens: past max_position 16.
    assert main(argv[:1] + ["--ckpt", str(short_context_ckpt)] + argv[1:]) == EXIT_USAGE
    assert "exceeds max_position" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "bench"])
def test_empty_generated_suite_is_usage_error(untrained_ckpt, capsys, command):
    code = main([command, "--ckpt", str(untrained_ckpt), "--suite", "random", "--prompts", "0"])
    assert code == EXIT_USAGE
    assert "--prompts must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "bench"])
def test_negative_prompt_count_is_usage_error(untrained_ckpt, tmp_path, capsys, monkeypatch, command):
    # For a file suite the count must not act as a slice bound (-1 = all but the last).
    # It is checked before the checkpoint is read, as --prompt-len is.
    def no_load(path):
        raise AssertionError(f"{command} loaded the checkpoint before checking --prompts")

    monkeypatch.setattr("specmtp.cli._load", no_load)
    suite = tmp_path / "prompts.txt"
    suite.write_text("abcd\nbcda\ncdab\n", encoding="utf-8")
    for name in (str(suite), "random"):
        code = main([command, "--ckpt", str(untrained_ckpt), "--suite", name, "--prompts", "-1"])
        assert code == EXIT_USAGE
        assert "--prompts must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("length", ["-1", "-2"])
@pytest.mark.parametrize("command", ["verify", "bench"])
def test_negative_prompt_len_is_usage_error_before_loading(
    untrained_ckpt, tmp_path, capsys, monkeypatch, command, length
):
    # Every suite, the file suite that does not read the length included:
    # the random and pattern suites passed it on to numpy, the arithmetic
    # suite made it one digit.
    def no_load(path):
        raise AssertionError(f"{command} loaded the checkpoint before checking --prompt-len")

    monkeypatch.setattr("specmtp.cli._load", no_load)
    suite = tmp_path / "prompts.txt"
    suite.write_text("abcd\n", encoding="utf-8")
    for name in ("random", "pattern", "arithmetic", str(suite)):
        argv = [command, "--ckpt", str(untrained_ckpt), "--suite", name, "--prompts", "2", "--prompt-len", length]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"usage error: --prompt-len must be >= 0, got {length}" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "strategies, message",
    [
        (",", "names no strategy"),
        ("", "names no strategy"),
        (" , ", "names no strategy"),
        ("beam", "unknown strategy 'beam'"),
        ("linear,beam", "unknown strategy 'beam'"),
    ],
)
def test_bench_strategy_list_is_checked_before_decoding(untrained_ckpt, capsys, monkeypatch, strategies, message):
    def no_decode(*args, **kwargs):
        raise AssertionError("bench decoded before checking --strategies")

    monkeypatch.setattr("specmtp.cli.speculative_decode", no_decode)
    argv = ["bench", "--ckpt", str(untrained_ckpt), "--suite", "random", "--prompts", "2",
            "--strategies", strategies]
    assert main(argv) == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("steps", ["0", "-1"])
@pytest.mark.parametrize("command", ["verify", "bench", "decode"])
def test_no_decode_steps_is_usage_error(untrained_ckpt, capsys, monkeypatch, command, steps):
    # With no step bench has no acceptance rate, verify compares no token
    # and decode prints nothing: each stops before the checkpoint loads.
    # decode checks greedy's --max-new as well.
    def no_load(path):
        raise AssertionError(f"{command} loaded the checkpoint before checking its counts")

    monkeypatch.setattr("specmtp.cli._load", no_load)
    if command == "decode":
        runs = [(["--prompt", "ab", flag, steps], flag) for flag in ("--max-steps", "--max-new")]
    else:
        runs = [(["--prompts", "2", "--max-steps", steps], "--max-steps")]
    for extra, flag in runs:
        assert main([command, "--ckpt", str(untrained_ckpt)] + extra) == EXIT_USAGE
        assert f"{flag} must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, k",
    [(c, k) for c in ("decode", "verify") for k in ("5", "0")] + [("probe", "5"), ("probe", "-1")],
)
def test_k_past_the_masks_is_usage_error_naming_the_flag(untrained_ckpt, capsys, command, k):
    # probe's --k 0 means every mask, so only a nonzero one is checked.
    extra = {
        "decode": ["--prompt", "ab"], "verify": ["--prompts", "2"], "probe": ["--prompt", "ab", "--future", "b"]
    }[command]
    assert main([command, "--ckpt", str(untrained_ckpt), "--k", k] + extra) == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"--k {k} must stay within 1..4" in captured.err and captured.out == ""


def test_probe_empty_future_is_usage_error_before_loading(untrained_ckpt, capsys, monkeypatch):
    # An empty --future has no rank to report: the median of none is NaN.
    def no_load(path):
        raise AssertionError("probe loaded the checkpoint before checking --future")

    monkeypatch.setattr("specmtp.cli._load", no_load)
    code = main(["probe", "--ckpt", str(untrained_ckpt), "--prompt", "abcd", "--future", ""])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert "--future" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "k_range, message",
    [
        ("0-2", "must have 1 <= lo <= hi"),
        ("3-1", "must have 1 <= lo <= hi"),
        ("a-b", "is not lo-hi in integers"),
        ("-2", "is not lo-hi in integers"),
    ],
)
def test_bench_k_range_is_checked_before_loading(untrained_ckpt, capsys, monkeypatch, k_range, message):
    def no_load(path):
        raise AssertionError("bench loaded the checkpoint before checking --k-range")

    monkeypatch.setattr("specmtp.cli._load", no_load)
    argv = ["bench", "--ckpt", str(untrained_ckpt), "--prompts", "2", "--k-range", k_range]
    assert main(argv) == EXIT_USAGE
    assert f"--k-range {k_range!r} {message}" in capsys.readouterr().err


def test_bench_k_range_past_the_masks_is_usage_error_naming_the_flag(untrained_ckpt, capsys, monkeypatch):
    # The upper bound is the checkpoint's k_masks (4), checked once it loads
    # and before any decoding.
    def no_decode(*args, **kwargs):
        raise AssertionError("bench decoded before checking --k-range")

    monkeypatch.setattr("specmtp.cli.speculative_decode", no_decode)
    argv = ["bench", "--ckpt", str(untrained_ckpt), "--prompts", "2", "--k-range", "1-9"]
    assert main(argv) == EXIT_USAGE
    assert "--k-range '1-9' must stay within 1..4" in capsys.readouterr().err


def test_probe_prompt_without_room_for_its_masks_is_usage_error(short_context_ckpt, capsys):
    # With its BOS, a 12-character prompt is 13 tokens: inside max_position
    # 16, but 4 masks after it are not.
    code = main(["probe", "--ckpt", str(short_context_ckpt), "--prompt", "abcdabcdabcd", "--future", "ab"])
    assert code == EXIT_USAGE
    assert "prompt of 13 tokens leaves no room for 4 masks below max_position 16" in capsys.readouterr().err


def test_exit_codes_for_bad_invocations(tmp_path, capsys):
    assert main(["decode", "--ckpt", str(tmp_path / "nope.ckpt"), "--prompt", "ab"]) == EXIT_IO
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main(["bench", "--ckpt", "x", "--k-range", "zero"]) in (EXIT_USAGE, EXIT_IO)
    capsys.readouterr()


def test_unknown_prompt_characters_are_usage_errors(trained_ckpt, capsys):
    assert main(["decode", "--ckpt", str(trained_ckpt), "--prompt", "zzz!"]) == EXIT_USAGE
    capsys.readouterr()
