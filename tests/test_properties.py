"""Property tests over generated inputs: node relabeling permutes the
model's output rows, zero noise changes nothing, checkpoints and datasets
survive a write and a load unchanged, and arbitrary bytes or JSON fed to
the loaders fail only with the package's own errors, as does training
on any corpus that a caller could build. The baseline's
constant product from a 0/1 array's ones and the pair sweep with its
transpose equal the dense products, the
blocked gathered kernels equal their whole-array references, the swept
gradients of a gather layout equal np.add.at, and every variant's whole
forward pass equals the straight-line oracle, with gradients that match
central differences, which a (pair, token) row sweep with one entry
shifted fails.

Examples are derived from the test source, not drawn at random, so every
run checks the same cases.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fagcn.tensor as T
from fagcn.attention import PairTokens
from fagcn.checkpoint import DIMS, load_checkpoint, save_checkpoint
from fagcn.cli import cmd_sweep
from fagcn.corpus import ContentCorpus, Vocabulary, load_corpus, split
from fagcn.datasets import write_dataset
from fagcn.errors import ConfigError, DataError, FagcnError
from fagcn.graph import Graph, build_graph, load_edge_list
from fagcn.model import (GraphOperators, LabelMatrix, ModelParams, PairOperator, forward,
                         init_for_variant, loss)
from fagcn.noise import inject_noise
from fagcn.training import VARIANTS, ExperimentConfig, train

from conftest import grad_check, sum_all
from _oracle import (adjacency_of, arrays_of, listed_ones, normalized_adjacency_of,
                     straightline_baseline, straightline_forward)

FEW = settings(derandomize=True, max_examples=25, deadline=None)
VOCAB = 5


@st.composite
def graphs_with_contents(draw):
    """A graph of 1-6 nodes (isolated ones likely), ragged token lists, and
    a relabeling of its nodes."""
    n = draw(st.integers(1, 6))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=8))
    contents = draw(st.lists(st.lists(st.integers(0, VOCAB - 1), min_size=1, max_size=5),
                             min_size=n, max_size=n))
    perm = draw(st.permutations(range(n)))
    return Graph(n, edges), contents, perm


def corpus_of(contents) -> ContentCorpus:
    n = len(contents)
    return ContentCorpus(node_ids=list(range(n)), contents=contents, labels=[0] * n,
                         label_names=["only"], vocab_size=VOCAB)


class TestRelabeling:
    @FEW
    @given(case=graphs_with_contents(), variant=st.sampled_from(["none", "self", "context"]),
           layer1_normalize=st.booleans(), seed=st.integers(0, 2 ** 16))
    def test_relabeling_nodes_permutes_output_rows(self, case, variant, layer1_normalize, seed):
        graph, contents, perm = case  # perm[old] is the new index of node old
        params = ModelParams.init(VOCAB, 3, 3, 3, 4, variant, np.random.default_rng(seed))
        z = forward(params, graph, corpus_of(contents), layer1_normalize=layer1_normalize).data

        relabeled = Graph(graph.n, [(perm[i], perm[j]) for i, j in graph.edges])
        moved = [None] * graph.n
        for old, new in enumerate(perm):
            moved[new] = contents[old]
        z_moved = forward(params, relabeled, corpus_of(moved),
                          layer1_normalize=layer1_normalize).data
        np.testing.assert_allclose(z_moved[perm], z, atol=1e-12)


class TestNoNoise:
    @FEW
    @given(case=graphs_with_contents(), seed=st.integers(0, 2 ** 16))
    def test_inject_ratio_zero_is_identity(self, case, seed):
        _, contents, _ = case
        corpus = corpus_of(contents)
        assert inject_noise(corpus, 0.0, np.random.default_rng(seed)) == corpus


@st.composite
def graphs_with_constants(draw):
    """A graph of 1-12 nodes and an n x 0-6 array of zeros and ones."""
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=30))
    width = draw(st.integers(0, 6))
    x = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n * width, max_size=n * width))
    return Graph(n, edges), np.array(x, dtype=float).reshape(n, width)


class TestConstantProduct:
    @FEW
    @given(case=graphs_with_constants())
    def test_matches_the_dense_product(self, case):
        graph, x = case
        product = GraphOperators.build(graph).norm_adj.propagate_nonzeros(*listed_ones(x))
        np.testing.assert_allclose(product, normalized_adjacency_of(graph) @ x,
                                   rtol=1e-12, atol=1e-12)


    @FEW
    @given(case=graphs_with_contents(), block=st.integers(1, 24))
    def test_distinct_terms_in_blocks_match_the_dense_product(self, case, block):
        # isolated nodes and repeated tokens are likely; every block size
        # sums each (center, term) in pair order, as one bincount does
        graph, contents, _ = case
        corpus = corpus_of(contents)
        bow = np.zeros((graph.n, VOCAB))
        for node, tokens in enumerate(contents):
            bow[node, tokens] = 1.0
        op = GraphOperators.build(graph).norm_adj
        whole = op.propagate_nonzeros(*listed_ones(bow))
        with mock.patch.object(T, "GATHER_BLOCK", block):
            product = op.propagate_nonzeros(*corpus.distinct_tokens, VOCAB)
        np.testing.assert_allclose(product, normalized_adjacency_of(graph) @ bow,
                                   rtol=0, atol=1e-12)
        assert product.tobytes() == whole.tobytes()


@st.composite
def graphs_with_pair_scales(draw):
    """A graph of 1-12 nodes, a positive scale per node, and two n x 0-4
    arrays; stars and hubs, which finish in the sweep's tail, are likely."""
    graph, x = draw(graphs_with_constants())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    return graph, rng.uniform(0.1, 2.0, graph.n), x, rng.standard_normal(x.shape)


class TestPairSweep:
    @FEW
    @given(case=graphs_with_pair_scales())
    @example(case=(Graph(9, [(0, leaf) for leaf in range(1, 9)]), np.linspace(0.5, 2, 9),
                   np.ones((9, 2)), np.arange(18.0).reshape(9, 2)))
    def test_propagation_and_its_gradient_match_the_dense_products(self, case):
        graph, scale, x, probe = case
        closed = adjacency_of(graph) + np.eye(graph.n)
        operators = GraphOperators.build(graph)
        for op, matrix in ((PairOperator(graph, scale), np.diag(scale) @ closed @ np.diag(scale)),
                           (operators.norm_adj, normalized_adjacency_of(graph)),
                           (operators.support, closed)):
            xt = T.Tensor(x)
            with T.Tape() as tape:
                out = op.propagate(xt)
                tape.backward(sum_all(T.mul(T.constant(probe), out)))
            np.testing.assert_allclose(out.data, matrix @ x, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(xt.grad, matrix.T @ probe, rtol=1e-12, atol=1e-12)


@st.composite
def gathered_segments(draw, fit: bool):
    """A gather block of a few entries, x (rows x cols), and segments of
    gathered row indices, with weights. Every segment fits in one block
    when ``fit``; otherwise one or more are longer than a block."""
    block, cols = draw(st.integers(1, 24)), draw(st.integers(1, 4))
    step = max(1, block // cols)
    longest = step if fit else 3 * step + 2
    lengths = draw(st.lists(st.integers(1, longest), min_size=1, max_size=8))
    if not fit:
        at = draw(st.integers(0, len(lengths) - 1))
        lengths[at] = draw(st.integers(step + 1, longest))
    n = draw(st.integers(1, 8))
    idx = np.array(draw(st.lists(st.integers(0, n - 1), min_size=sum(lengths),
                                 max_size=sum(lengths))), dtype=np.intp)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    starts = np.cumsum(lengths) - lengths
    return (block, rng.standard_normal((n, cols)), idx, starts,
            rng.standard_normal((len(lengths), cols)), rng.standard_normal((idx.size, 1)))


@st.composite
def ragged_layouts(draw):
    """A gather block of a few entries, x (rows x cols) whose last two rows
    no entry gathers, and short segments of gathered row indices around a
    hub: a segment whose first half gathers row 0 and is longer than the
    others, than the distinct rows and than two blocks. So the hub repeats
    a row, and the hub and row 0 each finish in their sweep's tail with
    more than a block of entries. Also y, one row per segment, and an
    output gradient column."""
    block, cols = draw(st.integers(1, 24)), draw(st.integers(1, 4))
    step = max(1, block // cols)
    n = draw(st.integers(1, 6))
    lengths = draw(st.lists(st.integers(1, 4), max_size=7))
    half = len(lengths) + n + 2 * step + 2
    hub = draw(st.integers(0, len(lengths)))
    lengths.insert(hub, 2 * half)
    idx = draw(st.lists(st.integers(0, n - 1), min_size=sum(lengths), max_size=sum(lengths)))
    at = sum(lengths[:hub])
    idx[at:at + half] = [0] * half
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    starts = np.cumsum(lengths) - lengths
    return (block, rng.standard_normal((n + 2, cols)), np.array(idx), starts,
            rng.standard_normal((len(lengths), cols)), rng.standard_normal((len(idx), 1)))


class GatherLog(np.ndarray):
    """An array that logs the row count of every gather taken from it."""

    def __getitem__(self, key):
        rows = super().__getitem__(key)
        self.gathered.append(len(rows))
        return np.asarray(rows)


class TestGatheredKernels:
    @FEW
    @given(case=gathered_segments(fit=False))
    def test_gather_dot_feature_gradient_matches_add_at(self, case):
        # repeated rows, rows never gathered, single-row segments and
        # more entries than one block
        block, x, idx, starts, y, g = case
        xt = T.Tensor(x)
        with mock.patch.object(T, "GATHER_BLOCK", block), T.Tape() as tape:
            out = T.gather_dot(xt, T.GatherLayout(idx, starts), T.constant(y))
            tape.backward(sum_all(T.mul(T.constant(g), out)))
        seg = np.repeat(np.arange(starts.size), np.diff(starts, append=idx.size))
        expected = np.zeros_like(x)
        np.add.at(expected, idx, g * y[seg])
        np.testing.assert_allclose(xt.grad, expected, rtol=1e-12, atol=1e-12)
        never = np.setdiff1d(np.arange(x.shape[0]), idx)
        assert not xt.grad[never].any()

    @FEW
    @given(case=ragged_layouts())
    def test_swept_gradients_match_add_at(self, case):
        # one layout's sweeps, shared by both ops and the encoder's sums per
        # term, against np.add.at; the hub segment and row 0 finish in their
        # sweeps' tails, summed there in more than one block
        block, x, idx, starts, y, g = case
        rng = np.random.default_rng(idx.size)
        w, probe, dz = (rng.standard_normal(shape)
                        for shape in ((idx.size, 1), y.shape, (idx.size, x.shape[1])))
        at = rng.permutation(idx.size)  # dz lists the entries in another order
        seg = np.repeat(np.arange(starts.size), np.diff(starts, append=idx.size))
        layout = T.GatherLayout(idx, starts)
        xt, yt, wt, ut = T.Tensor(x), T.Tensor(y), T.Tensor(w), T.Tensor(x)
        with mock.patch.object(T, "GATHER_BLOCK", block):
            with T.Tape() as tape:
                tape.backward(sum_all(T.mul(T.constant(g), T.gather_dot(xt, layout, yt))))
            with T.Tape() as tape:
                tape.backward(sum_all(T.mul(T.constant(probe),
                                            T.gather_segment_sum(wt, ut, layout))))
            per_term = layout.distinct_sums(dz, at)
        assert layout.by_segment[0].tail.size and layout.by_row[0].tail.size
        distinct, term_of = layout.distinct
        np.testing.assert_array_equal(np.sort(distinct), np.unique(idx))
        np.testing.assert_array_equal(distinct[term_of], idx)
        scattered = np.zeros_like(x)
        scattered[distinct] = per_term
        for grad, rows, terms in ((xt.grad, idx, g * y[seg]), (yt.grad, seg, g * x[idx]),
                                  (ut.grad, idx, w * probe[seg]), (scattered, idx, dz[at])):
            expected = np.zeros_like(grad)
            np.add.at(expected, rows, terms)
            np.testing.assert_allclose(grad, expected, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(wt.grad[:, 0], np.einsum("ij,ij->i", x[idx], probe[seg]),
                                   rtol=1e-12, atol=1e-12)
        for grad in (xt.grad, ut.grad, scattered):
            assert not grad[-2:].any()  # the rows no entry gathers

    @FEW
    @given(case=gathered_segments(fit=True))
    def test_blocked_sums_equal_one_reduceat_when_segments_fit(self, case):
        block, x, idx, starts, _, w = case
        with mock.patch.object(T, "GATHER_BLOCK", block):
            sums = T._sums(w, x, idx, starts)
        assert sums.tobytes() == np.add.reduceat(x[idx] * w, starts).tobytes()

    @FEW
    @given(case=gathered_segments(fit=False))
    def test_blocked_sums_match_one_reduceat_when_segments_span_blocks(self, case):
        block, x, idx, starts, _, w = case
        logged = x.view(GatherLog)
        logged.gathered = []
        with mock.patch.object(T, "GATHER_BLOCK", block):
            sums = T._sums(w, logged, idx, starts)
        np.testing.assert_allclose(sums, np.add.reduceat(x[idx] * w, starts),
                                   rtol=1e-12, atol=1e-12)
        assert sum(logged.gathered) == idx.size
        assert max(logged.gathered) <= max(1, block // x.shape[1])


def check_whole_model(graph: Graph, contents, variant: str, layer1_normalize: bool,
                      block: int, seed: int) -> None:
    """The bound forward pass equals the straight-line oracle, and every
    parameter group's gradient matches central differences."""
    corpus = corpus_of(contents)
    rng = np.random.default_rng(seed)
    params = init_for_variant(variant, VOCAB, 3, 3, 3, 4, rng)
    adjacency = adjacency_of(graph)
    labels = LabelMatrix.build([i % 3 for i in range(graph.n)], 3, range(graph.n))
    with mock.patch.object(T, "GATHER_BLOCK", block):
        run = params.bind(graph, corpus, GraphOperators.build(graph))
        z = run(layer1_normalize=layer1_normalize).data
        if variant == "baseline_gcn":
            bow = np.zeros((graph.n, VOCAB))
            for i, tokens in enumerate(contents):
                bow[i, tokens] = 1.0
            expected = straightline_baseline(arrays_of(params), adjacency, bow)
        else:
            expected = straightline_forward(arrays_of(params), adjacency, contents, variant,
                                            layer1_normalize)
        np.testing.assert_allclose(z, expected, rtol=0, atol=1e-12)
        worst = grad_check(
            lambda: loss(run(layer1_normalize=layer1_normalize), labels, params, 5e-3, 5e-4),
            params.named_parameters(), eps=1e-5, rng=rng, samples_per_param=4)
    assert worst < 1e-4


class TestWholeModel:
    @FEW
    @given(case=graphs_with_contents(), variant=st.sampled_from(VARIANTS),
           layer1_normalize=st.booleans(), block=st.integers(1, 24), seed=st.integers(0, 2 ** 16))
    def test_forward_matches_the_oracle_and_gradients_check(self, case, variant,
                                                            layer1_normalize, block, seed):
        # every blocked kernel path, the long-segment split included, inside
        # a whole model; repeated tokens and isolated nodes are likely
        graph, contents, _ = case
        check_whole_model(graph, contents, variant, layer1_normalize, block, seed)

    @pytest.mark.parametrize("variant", ["none", "self", "context"])
    def test_a_row_sweep_with_one_entry_shifted_fails(self, monkeypatch, variant):
        # the (pair, token) layout's first swept visit reads the next
        # entry's weight and segment but lands on its own row: the forward
        # pass, which builds no sweep, still matches, and the gradients fail
        by_row = PairTokens.by_row

        def shifted(layout):
            sweep, _, land = by_row.func(layout)
            entries = sweep.entries.copy()
            entries[0] = (entries[0] + 1) % entries.size
            return sweep._replace(entries=entries), layout.seg[entries], land

        monkeypatch.setattr(PairTokens, "by_row", property(shifted))
        graph = Graph(4, [(0, 1), (1, 2), (1, 3)])
        contents = [[0, 1, 2], [3], [4, 0], [1, 1, 2, 3]]
        with pytest.raises(AssertionError):
            check_whole_model(graph, contents, variant, False, 24, 5)
        monkeypatch.undo()
        check_whole_model(graph, contents, variant, False, 24, 5)


def load_bytes(loader, raw: bytes) -> None:
    """Feed ``raw`` to ``loader`` as a file; only a FagcnError may escape."""
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "input")
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            loader(path)
        except FagcnError:
            pass


def checkpoint_bytes() -> bytes:
    params = ModelParams.init(VOCAB, 2, 3, 3, 2, "context", np.random.default_rng(0))
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "model.ckpt")
        save_checkpoint(path, {"variant": "context", "embed_dim": 3, "feature_dim": 3,
                               "hidden_dim": 2}, params,
                        [f"t{k}" for k in range(VOCAB)], ["a", "b"])
        with open(path, "rb") as fh:
            return fh.read()


VALID_CHECKPOINT = checkpoint_bytes()
TEXTY = st.lists(st.sampled_from([b"0", b"1", b"7", b"-", b"\t", b" ", b"\n", b"#", b"a",
                                  b"\xff", b"9" * 30]), max_size=40).map(b"".join)


class TestLoadersRaiseOnlyPackageErrors:
    @FEW
    @given(raw=st.binary(max_size=200) | TEXTY)
    def test_load_corpus(self, raw):
        load_bytes(load_corpus, raw)

    @FEW
    @given(raw=st.binary(max_size=200) | TEXTY)
    def test_load_edge_list(self, raw):
        load_bytes(load_edge_list, raw)

    @FEW
    @given(raw=st.binary(max_size=200))
    def test_load_checkpoint_random_bytes(self, raw):
        load_bytes(load_checkpoint, raw)

    @FEW
    @given(cut=st.integers(0, len(VALID_CHECKPOINT)), junk=st.binary(min_size=1, max_size=8))
    def test_load_checkpoint_spliced_bytes(self, cut, junk):
        load_bytes(load_checkpoint, VALID_CHECKPOINT[:cut] + junk + VALID_CHECKPOINT[cut + 1:])
        load_bytes(load_checkpoint, VALID_CHECKPOINT[:cut])


@st.composite
def corpus_fields(draw):
    """Contents and labels of 2-4 nodes, in range, with at most one entry
    then swapped for any int, float, string or bool, and maybe one node's
    content emptied."""
    n = draw(st.integers(2, 4))
    contents = draw(st.lists(st.lists(st.integers(0, VOCAB - 1), min_size=1, max_size=3),
                             min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    edited = draw(st.sampled_from([None, labels, *contents]))
    if edited is not None:
        edited[draw(st.integers(0, len(edited) - 1))] = draw(
            st.integers(-2, VOCAB + 1) | st.floats(-1, VOCAB) | st.text(max_size=2)
            | st.booleans())
    if draw(st.booleans()) and draw(st.booleans()):
        contents[draw(st.integers(0, n - 1))].clear()
    return contents, labels


class TestProgrammaticCorpora:
    @FEW
    @given(fields=corpus_fields(), variant=st.sampled_from(VARIANTS))
    def test_a_corpus_is_built_or_refused_and_trains_with_package_errors_only(
            self, fields, variant):
        contents, labels = fields
        n = len(contents)
        try:
            corpus = ContentCorpus(node_ids=list(range(n)), contents=contents, labels=labels,
                                   label_names=["a", "b"], vocab_size=VOCAB)
        except DataError:
            return
        terms, counts = corpus.distinct_tokens
        assert ([part.tolist() for part in np.split(terms, np.cumsum(counts)[:-1])]
                == [sorted(set(tokens)) for tokens in contents])
        config = ExperimentConfig(embed_dim=2, feature_dim=2, hidden_dim=2, epochs=1,
                                  train_fraction=0.5, variant=variant)
        try:
            train(config, Graph(n, [(i, i + 1) for i in range(n - 1)]), corpus,
                  split(n, 0.5, np.random.default_rng(0)))
        except FagcnError:
            pass


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6)
NAMES = st.lists(st.text(max_size=6), min_size=1, max_size=5, unique=True)
# valid values for some of the config fields that size no tensor
VALID_SETTINGS = st.fixed_dictionaries({}, optional={
    "lr": st.floats(1e-6, 10.0), "epochs": st.integers(0, 10 ** 6),
    "seed": st.integers(0, 2 ** 63), "train_fraction": st.floats(0.01, 0.99),
    "dropout_gcn": st.floats(0.0, 0.99), "layer1_normalize": st.booleans()})


class TestCheckpointRoundtrip:
    @FEW
    @given(variant=st.sampled_from(VARIANTS), dims=st.tuples(*[st.integers(1, 3)] * 3),
           terms=NAMES, labels=NAMES, extra=VALID_SETTINGS,
           scale=st.sampled_from([1e-310, 1.0, 1e300]), seed=st.integers(0, 2 ** 16))
    def test_save_then_load_gives_everything_back(self, variant, dims, terms, labels,
                                                  extra, scale, seed):
        rng = np.random.default_rng(seed)
        params = init_for_variant(variant, len(terms), len(labels), *dims, rng)
        for _, t in params.named_parameters():
            t.data = rng.standard_normal(t.shape) * scale
            t.data[0, 0] = -0.0
        config = {**extra, "variant": variant,
                  **dict(zip(("embed_dim", "feature_dim", "hidden_dim"), dims))}
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "model.ckpt")
            save_checkpoint(path, config, params, terms, labels)
            loaded_config, loaded, loaded_terms, loaded_labels = load_checkpoint(path)
        assert (loaded_config, loaded_terms, loaded_labels) == \
            (ExperimentConfig(**config), terms, labels)
        stored = dict(loaded.named_parameters())
        for name, t in params.named_parameters():
            assert stored[name].data.tobytes() == t.data.tobytes(), name


@st.composite
def datasets(draw):
    """A graph and corpus with arbitrary node ids, lower-case terms and labels."""
    n = draw(st.integers(1, 6))
    node_ids = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=n, max_size=n,
                             unique=True))
    terms = draw(st.lists(st.text("abcxyz019-é", min_size=1, max_size=4), min_size=1,
                          max_size=6, unique=True))
    label_names = draw(st.lists(st.text("ABCxyz_ 9", min_size=1, max_size=4), min_size=1,
                                max_size=3, unique=True))
    term, label, node = (st.integers(0, len(terms) - 1), st.integers(0, len(label_names) - 1),
                         st.integers(0, n - 1))
    corpus = ContentCorpus(node_ids=node_ids,
                           contents=draw(st.lists(st.lists(term, min_size=1, max_size=5),
                                                  min_size=n, max_size=n)),
                           labels=draw(st.lists(label, min_size=n, max_size=n)),
                           label_names=label_names, vocab_size=len(terms))
    edges = draw(st.lists(st.tuples(node, node), max_size=8))
    return Graph(n, edges), corpus, Vocabulary(terms)


def write_and_load(scratch, graph, corpus, vocab):
    content_path, edges_path = write_dataset(scratch, corpus, vocab, graph)
    loaded, loaded_vocab = load_corpus(content_path)
    return build_graph(loaded.node_ids, load_edge_list(edges_path)), loaded, loaded_vocab


class TestDatasetRoundtrip:
    @FEW
    @given(case=datasets())
    def test_write_then_load_reproduces_the_dataset(self, case):
        graph, corpus, vocab = case
        with tempfile.TemporaryDirectory() as scratch:
            loaded_graph, loaded, loaded_vocab = write_and_load(scratch, graph, corpus, vocab)
            again_graph, again, again_vocab = write_and_load(
                os.path.join(scratch, "again"), loaded_graph, loaded, loaded_vocab)
        assert loaded.node_ids == corpus.node_ids
        assert loaded_graph.edges == graph.edges
        for k in range(corpus.n):
            assert ([loaded_vocab.terms[t] for t in loaded.contents[k]]
                    == [vocab.terms[t] for t in corpus.contents[k]])
            assert (loaded.label_names[loaded.labels[k]]
                    == corpus.label_names[corpus.labels[k]])
        assert again == loaded and again_vocab.terms == loaded_vocab.terms
        assert again_graph.edges == loaded_graph.edges


CONFIG_KEYS = st.sampled_from(sorted(ExperimentConfig().to_dict())) | st.text(max_size=6)
AXES = st.sampled_from(["d_i", "d_o", "d_h", "p", "noise-inject", "noise-replace"])
# mostly valid specs, so the generated values also reach the data paths
SPECS = st.fixed_dictionaries(
    {"axis": AXES | JSON, "values": st.just([2]) | JSON,
     "content": st.text(max_size=4) | JSON, "edges": st.text(max_size=4) | JSON},
    optional={"variants": st.just(["self"]) | JSON, "seeds": st.just([1]) | JSON}) | JSON


class TestStoredConfigs:
    @FEW
    # the dimensions stay fixed: TestSchema in test_checkpoint.py covers them,
    # and a drawn one could ask for a huge allocation
    @given(edits=st.dictionaries(st.sampled_from(sorted(set(ExperimentConfig().to_dict())
                                                        - set(DIMS))) | st.text(max_size=6),
                                 JSON, max_size=3))
    def test_a_stored_config_loads_valid_or_is_a_data_error(self, edits):
        config = {"variant": "context", "embed_dim": 3, "feature_dim": 3, "hidden_dim": 2}
        params = ModelParams.init(VOCAB, 2, 3, 3, 2, "context", np.random.default_rng(0))
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "model.ckpt")
            save_checkpoint(path, {**config, **edits}, params,
                            [f"t{k}" for k in range(VOCAB)], ["a", "b"])
            try:
                loaded, _, _, _ = load_checkpoint(path)
            except DataError:
                return
        loaded.validate()


class TestJsonInputsRaiseOnlyConfigErrors:
    @FEW
    @given(data=st.dictionaries(CONFIG_KEYS, JSON, max_size=4))
    def test_experiment_config_from_dict(self, data):
        try:
            ExperimentConfig.from_dict(data)
        except ConfigError:
            pass

    @FEW
    @given(spec=SPECS)
    @example(spec={"axis": "d_h", "values": [2], "content": "a\x00", "edges": "b"})
    def test_sweep_spec(self, spec):
        with tempfile.TemporaryDirectory() as scratch:
            config_path = os.path.join(scratch, "config.json")
            spec_path = os.path.join(scratch, "sweep.json")
            with open(config_path, "w", encoding="utf-8") as fh:
                json.dump({"epochs": 1}, fh)
            with open(spec_path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            with redirect_stderr(io.StringIO()) as err:
                code = cmd_sweep(config_path, spec_path, os.path.join(scratch, "out.csv"),
                                 quiet=True)
        assert code == 2
        assert err.getvalue().startswith("error: ")
