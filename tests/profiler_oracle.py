"""Reference implementations the profiler tests check the production code
against byte for byte: the distance routine with a separate temporary for the
squared difference, the radius taken from a full sort, and the kNN query that
stable-sorts every distance over the rows in uuid order."""

import math

import numpy as np


def euclidean_distance(a, b):
    """Euclidean distance over the last axis of the C-order ``a - b``."""
    diff = np.subtract(np.asarray(a, dtype=np.float64),
                       np.asarray(b, dtype=np.float64), order="C")
    return np.sqrt(np.sum(diff * diff, axis=-1))


def compute_radius(members, centroid, epsilon):
    """The ceil((1 - epsilon) * N)-th smallest member distance."""
    members = np.asarray(members, dtype=np.float64)
    distances = np.sort(euclidean_distance(members, centroid))
    m = math.ceil((1.0 - epsilon) * len(members))
    return float(distances[m - 1])


def knn_query(kb, query, k):
    """(row, distance) of the k nearest members: a stable sort of every
    distance over the rows in uuid order, so ties break by uuid, then row."""
    distances = euclidean_distance(kb.embeddings, query)
    by_uuid = np.argsort(np.array(kb.uuids, dtype=str), kind="stable")
    nearest = by_uuid[np.argsort(distances[by_uuid], kind="stable")[:k]]
    return [(int(row), float(distances[row])) for row in nearest]
