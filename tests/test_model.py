"""SparseEncoder composition and checkpoint round-trip tests."""

import ast
import hashlib
import json
import os
import signal
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import mlp_head_per_position
from lsrkit import autodiff as ad
from lsrkit import model as model_module
from lsrkit.autodiff import Tape, Tensor, finite_difference_check
from lsrkit.backbones import BackboneConfig, Variant
from lsrkit.errors import ContractError, FormatError, VocabError
from lsrkit.heads import HeadKind, SparseHead, mlm_batch_activations, mlm_head, mlp_head
from lsrkit.model import SparseEncoder
from lsrkit.text import write_output


# Every backbone/head pairing SparseEncoder accepts.
VALID_PAIRS = [
    pytest.param(Variant.ENCODER_ONLY, HeadKind.MLP, id="encoder_only-mlp"),
    pytest.param(Variant.ENCODER_ONLY, HeadKind.MLM_MULTITOKENS, id="encoder_only-mlm_multi"),
    pytest.param(Variant.DECODER_MULTITOKENS, HeadKind.MLP, id="decoder_multi-mlp"),
    pytest.param(Variant.DECODER_MULTITOKENS, HeadKind.MLM_MULTITOKENS, id="decoder_multi-mlm_multi"),
    pytest.param(Variant.ENCDEC_SINGLETOKEN, HeadKind.MLM_SINGLETOKEN, id="encdec_single-mlm_single"),
    pytest.param(Variant.ENCDEC_SINGLETOKEN, HeadKind.MLM_MULTITOKENS, id="encdec_single-mlm_multi"),
    pytest.param(Variant.ENCDEC_MULTITOKENS, HeadKind.MLP, id="encdec_multi-mlp"),
    pytest.param(Variant.ENCDEC_MULTITOKENS, HeadKind.MLM_MULTITOKENS, id="encdec_multi-mlm_multi"),
]


def dense(vec, size=16):
    out = np.zeros(size)
    for t, w in vec.entries.items():
        out[t] = w
    return out


def build(variant=Variant.ENCDEC_MULTITOKENS, head=HeadKind.MLM_MULTITOKENS, seed=0, layers=1,
          vocab=16, d_model=8, num_heads=2):
    cfg = BackboneConfig(variant, num_layers=layers, d_model=d_model, num_heads=num_heads,
                         vocab_size=vocab, max_seq_len=8, seed=seed)
    return SparseEncoder.build(cfg, head)


class _CountingPool(ThreadPoolExecutor):
    submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


def _on_three_cpus(model, seqs) -> tuple[int, bytes]:
    """(pool submissions, activation bytes) of one untaped
    ``batch_activations`` call with three CPUs and a counting pool, run in a
    forked child. A pool thread that waits on its own pool would wait
    forever; the alarm ends the child then."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        signal.alarm(10)
        code = 1
        try:
            with _CountingPool(2) as pool:
                model_module._CPUS, model_module._POOL = 3, pool
                acts = model.batch_activations(seqs).data
            with os.fdopen(write, "wb") as out:
                out.write(struct.pack("<q", pool.submitted) + acts.tobytes())
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        sent = pipe.read()
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    return struct.unpack_from("<q", sent)[0], sent[8:]


def rewrite_header(path, mutate):
    """Apply ``mutate`` to a checkpoint's JSON header (it may return a new one)."""
    raw = path.read_bytes()
    (length,) = struct.unpack_from("<I", raw, 8)
    header = json.loads(raw[12 : 12 + length])
    header = mutate(header) or header
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + length :])


def array_offset(path, name):
    """Byte offset of a parameter array's first float64 in a checkpoint."""
    raw = path.read_bytes()
    (length,) = struct.unpack_from("<I", raw, 8)
    offset = 12 + length
    for record in json.loads(raw[12:offset])["arrays"]:
        if record["name"] == name:
            return offset
        offset += 8 * int(np.prod(record["shape"]))
    raise KeyError(name)


def set_field(section, key, value):
    def mutate(header):
        (header[section] if section else header)[key] = value

    return mutate


def drop_field(section, key):
    def mutate(header):
        del (header[section] if section else header)[key]

    return mutate


HEADER_MUTATIONS = [
    pytest.param(drop_field("backbone", "seed"), id="missing-seed"),
    pytest.param(drop_field("backbone", "variant"), id="missing-variant"),
    pytest.param(drop_field("head", "pooling"), id="missing-pooling"),
    pytest.param(drop_field(None, "vocab_digest"), id="missing-vocab-digest"),
    pytest.param(drop_field(None, "arrays"), id="missing-arrays"),
    pytest.param(drop_field(None, "head"), id="missing-head"),
    pytest.param(set_field("backbone", "variant", "nope"), id="unknown-variant"),
    pytest.param(set_field("head", "kind", "nope"), id="unknown-head-kind"),
    pytest.param(set_field("head", "pooling", "mean"), id="unknown-pooling"),
    pytest.param(set_field("head", "kind", "mlm_singletoken"), id="head-invalid-for-variant"),
    pytest.param(
        lambda header: header["head"].update(kind="mlp", pooling="sum"), id="mlp-head-sum-pooling"
    ),
    pytest.param(set_field("backbone", "num_layers", "1"), id="string-int"),
    pytest.param(set_field("backbone", "d_model", 8.0), id="float-int"),
    pytest.param(set_field("backbone", "seed", None), id="null-seed"),
    pytest.param(set_field("backbone", "seed", -1), id="negative-seed"),
    pytest.param(set_field("backbone", "num_layers", True), id="bool-int"),
    pytest.param(set_field("backbone", "num_heads", 3), id="heads-do-not-divide-d-model"),
    pytest.param(set_field("backbone", "num_heads", 0), id="zero-heads"),
    pytest.param(set_field("backbone", "vocab_size", 10**9), id="sizes-exceed-payload"),
    pytest.param(set_field(None, "vocab_digest", 7), id="numeric-vocab-digest"),
    pytest.param(set_field(None, "arrays", [5]), id="array-record-not-object"),
    pytest.param(set_field(None, "backbone", []), id="backbone-not-object"),
    pytest.param(lambda header: [header], id="header-not-object"),
]


class TestComposition:
    def test_mlp_rejected_on_singletoken_backbone(self):
        with pytest.raises(ContractError):
            build(Variant.ENCDEC_SINGLETOKEN, HeadKind.MLP)

    def test_head_of_another_vocabulary_rejected(self):
        backbone = build(Variant.ENCODER_ONLY).backbone
        with pytest.raises(ContractError, match="^head and backbone vocabulary sizes differ$"):
            SparseEncoder(backbone, SparseHead(HeadKind.MLM_MULTITOKENS, 8, 17))

    def test_mlp_head_of_another_width_rejected(self):
        # Such a model would save a checkpoint that load refuses and fail to encode.
        backbone = build(Variant.ENCODER_ONLY, HeadKind.MLP).backbone
        with pytest.raises(ContractError, match="width"):
            SparseEncoder(backbone, SparseHead(HeadKind.MLP, 4, 16))

    def test_encode_returns_sparse_vector(self):
        model = build()
        vec = model.encode([4, 5, 6])
        assert all(w > 0 for w in vec.entries.values())
        assert all(0 <= t < 16 for t in vec.entries)

    def test_nan_parameter_makes_encode_raise(self):
        model = build(Variant.ENCODER_ONLY, HeadKind.MLM_MULTITOKENS)
        assert len(model.encode([5, 6, 7])) > 0
        model.backbone.tok_emb.data[5, 0] = np.nan
        with pytest.raises(ContractError):
            model.encode([5, 6, 7])
        with pytest.raises(ContractError, match="term 5 "):
            model.encode([9])

    def test_mlp_support_is_input_subset(self):
        model = build(Variant.ENCODER_ONLY, HeadKind.MLP)
        vec = model.encode([4, 5, 4])
        assert set(vec.entries) <= {4, 5}

    def test_mlm_singletoken_rejected_on_multistate_backbones(self):
        for variant in set(Variant) - {Variant.ENCDEC_SINGLETOKEN}:
            with pytest.raises(ContractError):
                build(variant, HeadKind.MLM_SINGLETOKEN)

    @pytest.mark.parametrize("variant,head", VALID_PAIRS)
    def test_batch_activations_match_encode(self, variant, head):
        model = build(variant, head)
        if head == HeadKind.MLP:
            model.head.b.data[:] = 1.0  # every position scores > 0
        seqs = [(4, 5, 6, 5), (7, 8), (9,)]
        acts = model.batch_activations(seqs)
        for i, seq in enumerate(seqs):
            single = model.encode(list(seq))
            assert len(single) > 0
            states = model.backbone.encode(list(seq))
            if head == HeadKind.MLP:
                reference = mlp_head_per_position(states, list(seq), model.head)
                assert single == reference == mlp_head(states, list(seq), model.head)
            else:
                reference = mlm_head(states, model.backbone.tok_emb, model.head)
                assert set(single.entries) == set(reference.entries)
                np.testing.assert_allclose(dense(single), dense(reference), rtol=1e-12, atol=0)
            np.testing.assert_allclose(acts.data[i], dense(single), rtol=1e-12, atol=1e-14)


    @pytest.mark.parametrize(
        "variant", [Variant.ENCODER_ONLY, Variant.DECODER_MULTITOKENS, Variant.ENCDEC_MULTITOKENS]
    )
    def test_sum_pooled_encode_matches_mlm_head(self, variant):
        model = build(variant)
        model.head.pooling = "sum"
        for seq in ([4, 5, 6, 5], [7, 8], [9, 9, 9]):
            single = model.encode(seq)
            states = model.backbone.encode(seq)
            reference = mlm_head(states, model.backbone.tok_emb, model.head)
            assert len(single) > 0 and set(single.entries) == set(reference.entries)
            np.testing.assert_allclose(dense(single), dense(reference), rtol=0, atol=1e-12)

    def test_sum_pooled_activations_pass_the_gradient_check(self):
        model = build(Variant.ENCODER_ONLY)
        model.head.pooling = "sum"
        seqs = [(4, 5, 6), (7, 8), (9, 4, 4, 5)]
        weights = Tensor(np.random.default_rng(8).normal(size=(len(seqs), 16)))

        def loss(_x):
            return ad.sum_all(ad.mul(model.batch_activations(seqs), weights))

        params = dict(model.parameters())
        for name in ("head.b_vocab", "backbone.tok_emb"):
            assert finite_difference_check(loss, params[name], eps=1e-6) < 1e-5, name

    @pytest.mark.parametrize("variant,head", VALID_PAIRS)
    def test_untaped_activations_track_taped(self, variant, head):
        """The untaped per-sequence path gives the taped bits on one sequence
        and stays within 1e-10 of them on a packed batch."""
        model = build(variant, head)
        if head == HeadKind.MLP:
            model.head.b.data[:] = 1.0
        else:
            model.head.b_vocab.data = np.random.default_rng(2).normal(0.0, 0.05, 16)
        seqs = [(4, 5, 6, 5, 9, 10, 11, 12), (7, 8), (9,), (13, 4, 15)]
        for seq in seqs:
            untaped = model.batch_activations([seq])
            with Tape():
                taped = model.batch_activations([seq])
            np.testing.assert_array_equal(untaped.data, taped.data)
        untaped = model.batch_activations(seqs)
        with Tape():
            taped = model.batch_activations(seqs)
        np.testing.assert_allclose(untaped.data, taped.data, rtol=1e-10, atol=1e-12)


    @pytest.mark.parametrize("variant,head", VALID_PAIRS)
    def test_untaped_packed_bits_do_not_depend_on_the_cpu_count(self, monkeypatch, variant, head):
        """Per-sequence attention and head work spread over threads gives
        the bits of the serial loop."""
        model = build(variant, head)
        if head != HeadKind.MLP:
            model.head.b_vocab.data = np.random.default_rng(2).normal(0.0, 0.05, 16)
        seqs = [(4, 5, 6, 5, 9, 10, 11, 12), (7, 8), (9,), (13, 4, 15), (6, 7, 8, 9, 10)]
        default = model.batch_activations(seqs).data
        with _CountingPool(2) as pool:
            monkeypatch.setattr(model_module, "_CPUS", 3)
            monkeypatch.setattr(model_module, "_POOL", pool)
            three_way = model.batch_activations(seqs).data
        assert pool.submitted > 0
        monkeypatch.setattr(model_module, "_CPUS", 1)
        serial = model.batch_activations(seqs).data
        np.testing.assert_array_equal(default, serial)
        np.testing.assert_array_equal(three_way, serial)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.parametrize("variant,head", VALID_PAIRS)
    def test_untaped_packed_batch_forks_and_joins_once(self, monkeypatch, variant, head):
        """Nine sequences make four pairs and a lone middle one: with three
        CPUs one call hands two of the five units to the pool and gives the
        bits of the serial run and of the default pool."""
        model = build(variant, head, layers=2)
        if head != HeadKind.MLP:
            model.head.b_vocab.data = np.random.default_rng(2).normal(0.0, 0.05, 16)
        seqs = [(4, 5, 6, 5, 9, 10, 11, 12), (7,), (9, 10), (13, 4, 15), (6, 7, 8, 9, 10),
                (11,), (5, 5, 6), (12, 13, 14, 15), (8, 9)]
        submitted, acts = _on_three_cpus(model, seqs)
        assert submitted == 2
        default = model.batch_activations(seqs).data
        monkeypatch.setattr(model_module, "_CPUS", 1)
        serial = model.batch_activations(seqs).data
        assert acts == serial.tobytes() == default.tobytes()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.parametrize(
        "vocab,count,submitted",
        [
            pytest.param(5_000, 1, 0, id="one-sequence-4-blocks"),
            pytest.param(154, 1, 0, id="one-sequence-1-block"),
            pytest.param(5_000, 9, 2, id="packed-9"),
        ],
    )
    def test_only_pair_units_use_the_pool(self, monkeypatch, vocab, count, submitted):
        """With three CPUs a one-sequence encode hands nothing to the pool,
        whether |V| = 5,000 makes four vocabulary blocks or |V| = 154 one. A
        packed batch of nine hands out two of its five units and no head
        block: the head scores its blocks in the calling thread."""
        cfg = BackboneConfig(
            Variant.ENCDEC_MULTITOKENS, num_layers=1, d_model=8, num_heads=2, vocab_size=vocab,
            max_seq_len=64,
        )
        model = SparseEncoder.build(cfg, HeadKind.MLM_MULTITOKENS)
        rng = np.random.default_rng(7)
        seqs = [rng.integers(4, vocab, size=n).tolist() for n in rng.integers(2, 65, size=count)]
        got, acts = _on_three_cpus(model, seqs)
        assert got == submitted
        monkeypatch.setattr(model_module, "_CPUS", 1)
        assert acts == model.batch_activations(seqs).data.tobytes()

    def test_untaped_one_sequence_head_memory_is_per_block(self, monkeypatch):
        """Even with three CPUs a one-sequence encode holds one vocabulary
        block of logits at a time, never the whole [n, |V|] product."""
        n, vocab = 128, 20_000
        cfg = BackboneConfig(
            Variant.ENCDEC_MULTITOKENS, num_layers=1, d_model=8, num_heads=2, vocab_size=vocab,
            max_seq_len=n,
        )
        model = SparseEncoder.build(cfg, HeadKind.MLM_MULTITOKENS)
        seq = np.random.default_rng(8).integers(4, vocab, size=n).tolist()
        with ThreadPoolExecutor(2) as pool:
            monkeypatch.setattr(model_module, "_CPUS", 3)
            monkeypatch.setattr(model_module, "_POOL", pool)
            model.encode(seq)  # warm up lazily built state
            tracemalloc.start()
            try:
                model.encode(seq)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < n * vocab * 8 / 6.5

    def test_first_bad_sequence_in_batch_order_raises(self):
        """The pairing puts the overlong sequence at position 4 into the
        first unit and the bad id at position 1 into the last."""
        model = build()
        batch = [[4, 5, 6], [4, 99, 5, 6], [7, 8], [9, 10, 11, 12, 13], [4] * 9, [5]]
        with pytest.raises(VocabError, match="out of range"):
            model.batch_activations(batch)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda m: m.encode([True, 5]), id="encode"),
            pytest.param(lambda m: m.batch_activations([[4, 5], [True, False]]), id="pair"),
            pytest.param(lambda m: m.batch_activations([[4], [6, 7], (np.True_, 5)]), id="units"),
        ],
    )
    def test_bools_among_int_ids_are_a_vocab_error(self, call):
        with pytest.raises(VocabError, match="token ids must be integers, not bool"):
            call(build())

    @pytest.mark.parametrize(
        "variant",
        [Variant.ENCODER_ONLY, Variant.DECODER_MULTITOKENS, Variant.ENCDEC_MULTITOKENS],
    )
    def test_untaped_packed_head_memory_is_per_sequence(self, variant):
        """Without a tape the max-pooled head never holds all N x |V| logits."""
        vocab = 20_000
        cfg = BackboneConfig(
            variant, num_layers=1, d_model=8, num_heads=2, vocab_size=vocab, max_seq_len=32
        )
        model = SparseEncoder.build(cfg, HeadKind.MLM_MULTITOKENS)
        rng = np.random.default_rng(4)
        seqs = [rng.integers(4, vocab, size=n).tolist() for n in rng.integers(7, 33, size=8)]
        rows = sum(len(s) for s in seqs)
        model.batch_activations(seqs)  # warm up lazily built state
        tracemalloc.start()
        try:
            model.batch_activations(seqs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows * vocab * 8 / 2

    def test_untaped_packed_single_state_activations_are_the_formula(self):
        """Several single-state sequences take the general head path, untaped
        and taped, and give the formula's bits."""
        model = build(Variant.ENCDEC_SINGLETOKEN, HeadKind.MLM_SINGLETOKEN)
        model.head.b_vocab.data = np.random.default_rng(2).normal(0.0, 0.05, 16)
        seqs = [(4, 5, 6, 5, 9, 10, 11, 12), (7, 8), (9,), (13, 4, 15)]
        states, starts, _ = model.backbone.encode_batch(seqs)
        emb, b = model.backbone.tok_emb.data, model.head.b_vocab.data
        want = np.log1p(np.maximum(states.data @ emb.T + b, 0))
        assert model.batch_activations(seqs).data.tobytes() == want.tobytes()
        with Tape():
            taped = mlm_batch_activations(states, starts, model.backbone.tok_emb, model.head)
        assert taped.data.tobytes() == want.tobytes()


@pytest.fixture
def three_cpus(monkeypatch):
    """Make ``batch_activations`` cut its units into three groups, whatever the host has."""
    with _CountingPool(2) as pool:
        monkeypatch.setattr(model_module, "_CPUS", 3)
        monkeypatch.setattr(model_module, "_POOL", pool)
        yield pool


def lengths_one_to_nine(vocab=60):
    """An encoder-only MLP model and nine sequences of lengths 1-9. Pairing
    makes unit k of sequences k and 8 - k, unit 4 the lone middle one; three
    CPUs group the units as [0], [1, 2], [3, 4]."""
    cfg = BackboneConfig(Variant.ENCODER_ONLY, num_layers=1, d_model=16, num_heads=2,
                         vocab_size=vocab, max_seq_len=9)
    seqs = [[4 + (7 * i + j) % (vocab - 5) for j in range(i + 1)] for i in range(9)]
    return SparseEncoder.build(cfg, HeadKind.MLP), seqs


def record_units(model, on_unit):
    """Route every unit ``batch_activations`` runs through ``on_unit(unit)``,
    where ``unit`` is the list of the unit's sequences, before running it."""
    def batch_activations(seqs):
        seqs = list(seqs)
        if len(seqs) <= 2:
            on_unit(seqs)
        return SparseEncoder.batch_activations(model, seqs)

    model.batch_activations = batch_activations  # the method's own unit calls find it here


def _fork_join_callers() -> tuple[list[str], list[str]]:
    """(qualified names of the ``src/lsrkit`` functions whose own body calls
    ``_POOL.submit``, files that name ``ThreadPoolExecutor``)."""
    callers, pool_files = [], []

    def visit(node, scope, file):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, [*scope, child.name], file)
                continue
            func = child.func if isinstance(child, ast.Call) else None
            if isinstance(func, ast.Attribute) and func.attr == "submit" and "_POOL" in (
                getattr(func.value, "id", None), getattr(func.value, "attr", None)
            ):
                callers.append(".".join(scope))
            named = [getattr(child, "id", None), getattr(child, "attr", None)]
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                named += [alias.name for alias in child.names]
            if "ThreadPoolExecutor" in named and file not in pool_files:
                pool_files.append(file)
            visit(child, scope, file)

    for file in sorted(Path(model_module.__file__).parent.glob("*.py")):
        visit(ast.parse(file.read_text(encoding="utf-8")), [], file.name)
    return callers, pool_files


class TestForkJoin:
    """The untaped packed batch's fork-join, the program's only one."""

    def test_packed_units_are_the_one_fork_join(self):
        """Nothing nests: a second caller must be added here on purpose."""
        assert _fork_join_callers() == (["SparseEncoder.batch_activations"], ["model.py"])

    @pytest.mark.parametrize("count", [3, 4, 5, 9, 17])
    def test_every_sequence_runs_once_in_a_unit_of_at_most_two(self, three_cpus, count):
        model = build()
        rng = np.random.default_rng(count)
        seqs = [rng.integers(4, 16, size=n).tolist() for n in rng.integers(1, 9, size=count)]
        units, threads, index = [], set(), {id(s): i for i, s in enumerate(seqs)}

        def visit(unit):
            units.append([index[id(s)] for s in unit])
            threads.add(threading.get_ident())

        record_units(model, visit)
        acts = model.batch_activations(seqs).data
        assert sorted(i for unit in units for i in unit) == list(range(count))
        assert all(len(unit) <= 2 for unit in units)
        assert len(threads) > 1 and three_cpus.submitted == min(3, len(units)) - 1
        np.testing.assert_array_equal(acts, SparseEncoder.batch_activations(model, seqs).data)

    @pytest.mark.parametrize(
        "failing,raised", [({2, 4}, 2), ({0, 4}, 0)], ids=["in-the-pool", "in-this-thread"]
    )
    def test_earliest_failing_unit_error_reaches_the_caller(self, three_cpus, failing, raised):
        """The error of the earliest failing unit is raised unchanged, once
        every group has run to its end or to its first failure."""
        model, seqs = lengths_one_to_nine()
        errors = {k: FormatError(f"bad unit {k}") for k in failing}
        done = []

        def visit(unit):
            k = min(len(s) for s in unit) - 1  # unit k holds the sequence of length k + 1
            if k in errors:
                in_pool = threading.current_thread() is not threading.main_thread()
                assert in_pool == (k > 0)
                raise errors[k]
            time.sleep(0.02)
            done.append(k)

        record_units(model, visit)
        with pytest.raises(FormatError) as caught:
            model.batch_activations(seqs)
        assert caught.value is errors[raised]
        assert sorted(done) == sorted({0, 1, 2, 3, 4} - failing)  # each failure ends its group

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_every_group_runs_under_the_callers_errstate(self, monkeypatch, cpus):
        """An overflow in the lone middle unit, which a pool thread runs on
        three CPUs, raises as on one: the pool thread runs in a copy of the
        caller's context, so under its ``np.errstate``."""
        model, seqs = lengths_one_to_nine()
        model.backbone.tok_emb.data[59] = 1.5e308
        seqs[4][2] = 59  # only the length-5 sequence, row 4, holds id 59
        with ThreadPoolExecutor(2) as pool:
            monkeypatch.setattr(model_module, "_CPUS", cpus)
            monkeypatch.setattr(model_module, "_POOL", pool)
            with warnings.catch_warnings(record=True) as caught, np.errstate(all="raise"):
                warnings.simplefilter("always")
                with pytest.raises(FloatingPointError, match="overflow"):
                    model.batch_activations(seqs)
        assert caught == []

    def test_many_groups_under_fast_thread_switching(self, monkeypatch):
        """More groups than cores, switching threads every microsecond: the
        bits are still those of one CPU, call after call."""
        model = build()
        rng = np.random.default_rng(3)
        seqs = [rng.integers(4, 16, size=n).tolist() for n in rng.integers(1, 9, size=17)]
        monkeypatch.setattr(model_module, "_CPUS", 1)
        serial = model.batch_activations(seqs).data.tobytes()
        interval = sys.getswitchinterval()
        with ThreadPoolExecutor(7) as pool:
            monkeypatch.setattr(model_module, "_CPUS", 8)
            monkeypatch.setattr(model_module, "_POOL", pool)
            sys.setswitchinterval(1e-6)
            try:
                calls = [model.batch_activations(seqs).data.tobytes() for _ in range(20)]
            finally:
                sys.setswitchinterval(interval)
        assert calls == [serial] * 20

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_a_pool_of_its_own(self, three_cpus):
        model, seqs = lengths_one_to_nine()
        want = model.batch_activations(seqs).data.tobytes()
        # Units slow enough that each group gets a thread of its own; then
        # both threads wait, idle, for work.
        record_units(model, lambda unit: time.sleep(0.02))
        model.batch_activations(seqs)
        time.sleep(0.2)
        del model.batch_activations
        pid = os.fork()
        if pid == 0:
            # A group that no thread runs would keep the child waiting forever.
            signal.alarm(10)
            code = 1
            try:
                code = 0 if model.batch_activations(seqs).data.tobytes() == want else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_import_and_one_sequence_encode_start_no_thread(self):
        script = (
            "import threading\n"
            "before = threading.active_count()\n"
            "import lsrkit\n"
            "from lsrkit.backbones import BackboneConfig, Variant\n"
            "from lsrkit.heads import HeadKind\n"
            "imported = threading.active_count()\n"
            "cfg = BackboneConfig(Variant.ENCDEC_MULTITOKENS, num_layers=1, d_model=8,"
            " num_heads=2, vocab_size=16, max_seq_len=8)\n"
            "model = lsrkit.SparseEncoder.build(cfg, HeadKind.MLM_MULTITOKENS)\n"
            "model.encode([4, 5, 6, 7])\n"
            "print(before, imported, threading.active_count())\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        before, imported, encoded = map(int, proc.stdout.split())
        assert before == imported == encoded


class TestCheckpoint:
    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("head", [HeadKind.MLP, HeadKind.MLM_MULTITOKENS])
    def test_round_trip_bit_exact(self, tmp_path, variant, head):
        if variant == Variant.ENCDEC_SINGLETOKEN and head == HeadKind.MLP:
            pytest.skip("invalid combination")
        model = build(variant, head, seed=3)
        path = tmp_path / "model.ckpt"
        model.save(path, vocab_digest="abc123")
        loaded, digest = SparseEncoder.load(path)
        assert digest == "abc123"
        originals = dict(model.parameters())
        for name, tensor in loaded.parameters():
            np.testing.assert_array_equal(tensor.data, originals[name].data)
        # byte-identical re-serialization
        path2 = tmp_path / "again.ckpt"
        loaded.save(path2, vocab_digest="abc123")
        assert path.read_bytes() == path2.read_bytes()

    def test_header_json_is_pinned(self, tmp_path):
        path = tmp_path / "model.ckpt"
        build(Variant.DECODER_MULTITOKENS, HeadKind.MLP, seed=4).save(path, vocab_digest="abc")
        raw = path.read_bytes()
        (length,) = struct.unpack_from("<I", raw, 8)
        # everything after the sorted "arrays" list, byte for byte
        assert raw[12 : 12 + length].endswith(
            b'"backbone": {"d_model": 8, "max_seq_len": 8, "num_heads": 2, "num_layers": 1, '
            b'"seed": 4, "variant": "decoder_multitokens", "vocab_size": 16}, '
            b'"format_version": 1, "head": {"kind": "mlp", "pooling": "max"}, '
            b'"vocab_digest": "abc"}'
        )

    def test_same_seed_same_checkpoint_digest(self, tmp_path):
        digests = []
        for run in range(2):
            model = build(seed=9)
            path = tmp_path / f"m{run}.ckpt"
            model.save(path)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        build().save(path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            SparseEncoder.load(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        build().save(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(FormatError, match="truncated"):
            SparseEncoder.load(path)

    @pytest.mark.parametrize("mutate", HEADER_MUTATIONS)
    def test_bad_header_raises_format_error(self, tmp_path, mutate):
        path = tmp_path / "model.ckpt"
        build().save(path)
        rewrite_header(path, mutate)
        with pytest.raises(FormatError, match="header"):
            SparseEncoder.load(path)

    def test_sum_pooling_recorded_for_an_mlp_head_raises_format_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        build(Variant.ENCODER_ONLY, HeadKind.MLP).save(path)
        rewrite_header(path, set_field("head", "pooling", "sum"))
        with pytest.raises(FormatError, match="pooling sum needs kind mlm_multitokens, not mlp"):
            SparseEncoder.load(path)

    def test_deeply_nested_header_raises_format_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"LSRC" + struct.pack("<II", 1, 200_000) + b"[" * 200_000)
        with pytest.raises(FormatError, match="header: RecursionError"):
            SparseEncoder.load(path)

    def test_header_rewrite_alone_keeps_checkpoint_loadable(self, tmp_path):
        path = tmp_path / "model.ckpt"
        build().save(path, vocab_digest="abc")
        rewrite_header(path, lambda header: None)
        assert SparseEncoder.load(path)[1] == "abc"

    def test_file_shorter_than_fixed_header_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"LSRC\x01\x00")
        with pytest.raises(FormatError, match="truncated"):
            SparseEncoder.load(path)

    @pytest.mark.parametrize(
        "name,value",
        [("head.b_vocab", np.nan), ("backbone.tok_emb", np.inf), ("backbone.enc_pos", -np.inf)],
    )
    def test_non_finite_parameter_rejected(self, tmp_path, name, value):
        path = tmp_path / "model.ckpt"
        build().save(path)
        raw = bytearray(path.read_bytes())
        offset = array_offset(path, name)
        raw[offset : offset + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"{name} holds a non-finite"):
            SparseEncoder.load(path)

    def test_load_builds_without_drawing_parameters(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        build(seed=6).save(path)

        def no_build(*args, **kwargs):
            raise AssertionError("load drew parameters that the file overwrites")

        monkeypatch.setattr(SparseEncoder, "build", no_build)
        monkeypatch.setattr(np.random, "default_rng", no_build)
        loaded, _ = SparseEncoder.load(path)
        assert all(t.data.flags.writeable for _, t in loaded.parameters())

    @staticmethod
    def traced_peak(call) -> int:
        """Peak bytes that tracemalloc sees allocated while ``call()`` runs."""
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_load_holds_one_copy_of_the_parameters(self, tmp_path):
        model = build(layers=1, vocab=16384, d_model=64)  # tok_emb 8 MiB
        path = tmp_path / "model.ckpt"
        model.save(path)
        param_bytes = sum(t.data.nbytes for _, t in model.parameters())
        assert model.backbone.tok_emb.data.nbytes >= 8 * 2**20
        loaded = []
        peak = self.traced_peak(lambda: loaded.append(SparseEncoder.load(path)))
        assert peak <= 1.1 * param_bytes + 2**20
        for (name, a), (_, b) in zip(model.parameters(), loaded[0][0].parameters()):
            assert a.data.tobytes() == b.data.tobytes(), name

    def test_save_holds_no_copy_of_the_parameters(self, tmp_path):
        model = build(layers=1, vocab=16384, d_model=64)
        assert model.backbone.tok_emb.data.nbytes >= 8 * 2**20
        assert self.traced_peak(lambda: model.save(tmp_path / "model.ckpt")) < 2**20

    def test_last_array_cut_short_is_refused_before_it_is_allocated(self, tmp_path):
        model = build(layers=1, vocab=2**17, d_model=1, num_heads=1)
        path = tmp_path / "model.ckpt"
        model.save(path)
        last = model.head.b_vocab.data.nbytes  # 1 MiB, as large as tok_emb
        param_bytes = sum(t.data.nbytes for _, t in model.parameters())
        raw = path.read_bytes()
        assert array_offset(path, "head.b_vocab") == len(raw) - last
        write_output(path, [raw[:-8]])
        peak = self.traced_peak(lambda: pytest.raises(FormatError, SparseEncoder.load, path))
        # Building the model allocates no placeholder for an array the file
        # replaces, so only the arrays read before the last one are held when
        # it is refused; a zero placeholder for it, or reading it, would add
        # its bytes.
        assert peak < param_bytes - last / 2

    def test_loaded_model_encodes_identically(self, tmp_path):
        model = build(seed=5)
        path = tmp_path / "model.ckpt"
        model.save(path)
        loaded, _ = SparseEncoder.load(path)
        assert loaded.encode([4, 9, 5]) == model.encode([4, 9, 5])


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory):
    """Path for mutated files, and the bytes of one small saved checkpoint."""
    path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    build(seed=4).save(path, vocab_digest="abc")
    return path, path.read_bytes()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(truncate=st.booleans(), data=st.data())
def test_mutated_checkpoint_is_rejected_or_finite(fuzz_checkpoint, truncate, data):
    """A flipped or truncated checkpoint raises FormatError, or it loads a
    model whose parameters are all finite."""
    path, original = fuzz_checkpoint
    raw = bytearray(original)
    if truncate:
        raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="keep")]
    else:
        flips = st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255))
        for position, mask in data.draw(st.lists(flips, min_size=1, max_size=3), label="flips"):
            raw[position] ^= mask
    write_output(path, [bytes(raw)])  # fresh: truncating in place flushes on close
    try:
        model, _ = SparseEncoder.load(path)
    except FormatError:
        return
    for name, tensor in model.parameters():
        assert np.isfinite(tensor.data).all(), name
