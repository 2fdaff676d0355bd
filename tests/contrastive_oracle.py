"""Reference implementations the encoder tests check the production code
against: a pairwise contrastive loss with explicit per-pair gradients, the
full-matrix batch loss the production loss must match byte for byte, and the
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


def batch_loss_grad(z: np.ndarray, anchors, positives, members,
                    temperature: float):
    """Loss and dLoss/dZ over the whole (anchors, members) logit matrix, with
    a validity mask for each anchor's own and its positive's column and
    ``np.add.at`` scatters in the order anchors, members, positives."""
    anchor_idx = np.asarray(anchors, dtype=np.intp)
    pos_idx = np.asarray(positives, dtype=np.intp)
    member_idx = np.asarray(members, dtype=np.intp)
    if anchor_idx.size == 0:
        return 0.0, np.zeros_like(z)
    norms = np.linalg.norm(z, axis=1)
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    z_hat = z * inv[:, None]
    anchors = z_hat[anchor_idx]
    members = z_hat[member_idx]
    positives = z_hat[pos_idx]
    cos_members = anchors @ members.T
    cos_pos = np.einsum("md,md->m", anchors, positives)

    valid = (member_idx[None, :] != anchor_idx[:, None]) \
        & (member_idx[None, :] != pos_idx[:, None])
    logit_pos = cos_pos / temperature
    logit_mem = cos_members / temperature
    shift = np.maximum(logit_pos,
                       np.max(np.where(valid, logit_mem, -np.inf), axis=1,
                              initial=-np.inf))
    exp_pos = np.exp(logit_pos - shift)
    exp_mem = np.where(valid, np.exp(logit_mem - shift[:, None]), 0.0)
    denom = exp_pos + exp_mem.sum(axis=1)
    loss = float(-np.sum(np.log(exp_pos / denom)))

    g_mem = exp_mem / denom[:, None] / temperature
    g_pos = (exp_pos / denom - 1.0) / temperature

    row_dot = (g_mem * cos_members).sum(axis=1) + g_pos * cos_pos
    d_anchor = (g_mem @ members + g_pos[:, None] * positives
                - row_dot[:, None] * anchors)
    d_member = g_mem.T @ anchors \
        - (g_mem * cos_members).sum(axis=0)[:, None] * members
    d_positive = g_pos[:, None] * anchors - (g_pos * cos_pos)[:, None] * positives

    dz = np.zeros_like(z)
    np.add.at(dz, anchor_idx, d_anchor * inv[anchor_idx][:, None])
    np.add.at(dz, member_idx, d_member * inv[member_idx][:, None])
    np.add.at(dz, pos_idx, d_positive * inv[pos_idx][:, None])
    return loss, dz
