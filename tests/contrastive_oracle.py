"""Reference implementations the encoder tests check the production code
against: a pairwise contrastive loss with explicit per-pair gradients, and the
uuid-space batch sampler whose random draws the index-space sampler must
reproduce."""

import math

import numpy as np


def _cosine_and_grads(a: np.ndarray, b: np.ndarray):
    """Cosine similarity plus its gradients w.r.t. both arguments. A zero-norm
    vector yields similarity 0 with zero gradient."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0, np.zeros_like(a), np.zeros_like(b)
    cos = float(a @ b) / (na * nb)
    da = b / (na * nb) - cos * a / (na * na)
    db = a / (na * nb) - cos * b / (nb * nb)
    return cos, da, db


def infonce_loss_grad(z: np.ndarray, pairs, temperature: float):
    """Loss and dLoss/dZ for index-space pairs [(anchor, positive, negatives)].

    The loss is the sum over pairs of -log softmax(anchor-positive) against the
    anchor's negatives, with temperature-scaled cosine logits.
    """
    loss = 0.0
    dz = np.zeros_like(z)
    for anchor, positive, negatives in pairs:
        others = [positive] + list(negatives)
        logits = np.empty(len(others))
        grads_a = []
        grads_o = []
        for col, other in enumerate(others):
            cos, da, do = _cosine_and_grads(z[anchor], z[other])
            logits[col] = cos / temperature
            grads_a.append(da)
            grads_o.append(do)
        shift = logits - logits.max()
        softmax = np.exp(shift)
        softmax /= softmax.sum()
        loss -= shift[0] - math.log(np.exp(shift).sum())
        for col, other in enumerate(others):
            g = (softmax[col] - (1.0 if col == 0 else 0.0)) / temperature
            dz[anchor] += g * grads_a[col]
            dz[other] += g * grads_o[col]
    return loss, dz


def sample_uuid_batch(nodes: list[str], identities: dict[str, str],
                      batch_size: int, rng: np.random.Generator):
    """(anchors, positives, members) as uuids: a uniform sample of members,
    each unconsumed member with a same-identity peer anchoring one pair whose
    positive is drawn from the list of its peers."""
    ordered = sorted(nodes)
    groups: dict[str, list[str]] = {}
    for node in ordered:
        groups.setdefault(identities[node], []).append(node)

    members = [ordered[i] for i in rng.permutation(len(ordered))[:batch_size]]
    anchors, positives = [], []
    consumed: set[str] = set()
    for member in members:
        if member in consumed:
            continue
        peers = [p for p in groups[identities[member]] if p != member]
        if not peers:
            continue
        positive = peers[int(rng.integers(len(peers)))]
        consumed.add(member)
        consumed.add(positive)
        anchors.append(member)
        positives.append(positive)
    return anchors, positives, members
