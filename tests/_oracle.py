"""Independent straight-line re-implementation of the full forward pass.

Everything here is plain numpy over 1-D vectors with explicit loops and
no tape, kept free of imports from the package's math modules so it can
serve as an oracle for the taped implementation. Evaluation mode only
(no dropout).
"""

import numpy as np


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def adjacency_of(graph) -> np.ndarray:
    """The dense 0/1 adjacency matrix, from the graph's edge set alone."""
    adjacency = np.zeros((graph.n, graph.n))
    for i, j in graph.edges:
        adjacency[i, j] = adjacency[j, i] = 1.0
    return adjacency


def listed_ones(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """A 0/1 array as ``PairOperator.propagate_nonzeros`` takes it: the
    column ids of its ones row by row, their count per row, its width."""
    return np.nonzero(x)[1], np.count_nonzero(x, axis=1), x.shape[1]


def normalized_adjacency_of(graph) -> np.ndarray:
    """D^-1/2 (A + I) D^-1/2 with D the degrees of A + I, from the edge set."""
    loops = adjacency_of(graph) + np.eye(graph.n)
    inv_sqrt = 1.0 / np.sqrt(loops.sum(axis=1))
    return loops * inv_sqrt[:, None] * inv_sqrt[None, :]


def arrays_of(params) -> dict[str, np.ndarray]:
    """Snapshot named parameters as plain arrays."""
    return {name: t.data.copy() for name, t in params.named_parameters()}


def _direction(arrays: dict, prefix: str, token_vectors: list[np.ndarray]) -> list[np.ndarray]:
    weight, bias = arrays[f"{prefix}.weight"], arrays[f"{prefix}.bias"][0]
    d = weight.shape[1] // 4
    # forget, input, cell and output gates side by side
    gates = {name: (weight[:, k * d:(k + 1) * d], bias[k * d:(k + 1) * d])
             for k, name in enumerate(("forget", "input", "cell", "output"))}
    h = np.zeros(d)
    c = np.zeros(d)
    outputs = []
    for vec in token_vectors:
        x = np.concatenate([vec, h])
        f = _sigmoid(x @ gates["forget"][0] + gates["forget"][1])
        i = _sigmoid(x @ gates["input"][0] + gates["input"][1])
        g = np.tanh(x @ gates["cell"][0] + gates["cell"][1])
        o = _sigmoid(x @ gates["output"][0] + gates["output"][1])
        c = f * c + i * g
        h = o * np.tanh(c)
        outputs.append(h)
    return outputs


def encode_node(arrays: dict, tokens: list[int]) -> np.ndarray:
    """Per-token semantic vectors for one node, both directions summed."""
    token_vectors = [arrays["embeddings"][t] for t in tokens]
    ahead = _direction(arrays, "lstm_fwd", token_vectors)
    behind = _direction(arrays, "lstm_bwd", token_vectors[::-1])
    count = len(tokens)
    return np.stack([ahead[j] + behind[count - 1 - j] for j in range(count)])


def _softmax(scores: np.ndarray) -> np.ndarray:
    e = np.exp(scores)
    return e / e.sum()


def token_weights(arrays: dict, variant: str, features: np.ndarray,
                  center_context: np.ndarray | None) -> np.ndarray:
    count = features.shape[0]
    if variant == "none":
        return np.full(count, 1.0 / count)
    if variant == "self":
        scores = np.array([np.tanh(features[j]) @ arrays["attention.score_vector"][0]
                           for j in range(count)])
        return _softmax(scores)
    scores = np.array([features[j] @ arrays["attention.bilinear"] @ center_context
                       for j in range(count)])
    return _softmax(scores)


def straightline_forward(arrays: dict, adjacency: np.ndarray,
                         contents: list[list[int]], variant: str,
                         layer1_normalize: bool = False) -> np.ndarray:
    """Class-probability matrix computed with explicit per-node loops."""
    n = adjacency.shape[0]
    encoded = [encode_node(arrays, tokens) for tokens in contents]
    contexts = [h.sum(axis=0) for h in encoded]

    # normalization matrix with self-loop degrees, rebuilt locally
    degrees = adjacency.sum(axis=1) + 1.0
    norm = np.zeros_like(adjacency)
    loops = adjacency + np.eye(n)
    for i in range(n):
        for j in range(n):
            norm[i, j] = loops[i, j] / np.sqrt(degrees[i] * degrees[j])

    w0 = arrays["conv1_weight"]
    hidden = np.zeros((n, w0.shape[0]))
    for i in range(n):
        members = [m for m in range(n) if adjacency[i, m] > 0 or m == i]
        for m in members:
            weights = token_weights(arrays, variant, encoded[m],
                                    contexts[i] if variant == "context" else None)
            mixed = np.zeros(encoded[m].shape[1])
            for j in range(encoded[m].shape[0]):
                mixed += weights[j] * encoded[m][j]
            coeff = norm[i, m] if layer1_normalize else 1.0
            hidden[i] += coeff * (w0 @ mixed)

    active = np.maximum(0.0, hidden)
    outputs = norm @ active @ arrays["conv2_weight"]
    z = np.zeros_like(outputs)
    for i in range(n):
        shifted = outputs[i] - outputs[i].max()
        e = np.exp(shifted)
        z[i] = e / e.sum()
    return z


def straightline_loss(z: np.ndarray, onehot: np.ndarray, train_idx,
                      arrays: dict, l2_feature: float, l2_node: float) -> float:
    """Explicit-loop cross-entropy plus the two L2 penalties."""
    total = 0.0
    for d in train_idx:
        for f in range(onehot.shape[1]):
            if onehot[d, f] > 0:
                total -= onehot[d, f] * np.log(max(z[d, f], 1e-12))
    for name in ("lstm_fwd.weight", "lstm_bwd.weight"):
        total += l2_feature * float((arrays[name] ** 2).sum())
    for name in ("conv1_weight", "conv2_weight"):
        total += l2_node * float((arrays[name] ** 2).sum())
    return total


def straightline_baseline(arrays: dict, adjacency: np.ndarray,
                          bow: np.ndarray) -> np.ndarray:
    """Two-layer plain GCN on bag-of-words input, explicit loops."""
    n = adjacency.shape[0]
    degrees = adjacency.sum(axis=1) + 1.0
    loops = adjacency + np.eye(n)
    norm = loops / np.sqrt(np.outer(degrees, degrees))
    hidden = np.maximum(0.0, norm @ bow @ arrays["baseline.conv1_weight"])
    outputs = norm @ hidden @ arrays["baseline.conv2_weight"]
    z = np.zeros_like(outputs)
    for i in range(n):
        e = np.exp(outputs[i] - outputs[i].max())
        z[i] = e / e.sum()
    return z
