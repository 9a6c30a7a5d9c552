"""Property tests over generated inputs: node relabeling permutes the
model's output rows, zero noise changes nothing, and arbitrary bytes fed
to the loaders fail only with the package's own errors.

Examples are derived from the test source, not drawn at random, so every
run checks the same cases.
"""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fagcn.checkpoint import load_checkpoint, save_checkpoint
from fagcn.corpus import ContentCorpus, load_corpus
from fagcn.errors import FagcnError
from fagcn.graph import Graph, load_edge_list
from fagcn.model import ModelParams, forward
from fagcn.noise import inject_noise

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
        save_checkpoint(path, {"variant": "context"}, params,
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
