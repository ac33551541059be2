"""Shared builders for the test suite."""

import random

import numpy as np
import pytest

from ircount.corpus import BoundingBox, CountLabel, Dataset, ImageRecord, PointAnnotation


def make_box(cx=0.5, cy=0.5, w=0.1, h=0.1, score=1.0):
    return BoundingBox(cx, cy, w, h, score)


def box_rows(boxes):
    """The ``(k, 5)`` rows of ``BoundingBox`` items, as ``ImageRecord.boxes`` holds them."""
    return np.array([(b.cx, b.cy, b.w, b.h, b.score) for b in boxes], dtype=np.float64).reshape(-1, 5)


def make_point(cx=0.5, cy=0.5, score=1.0):
    return PointAnnotation(cx, cy, score)


def count_record(rec_id, count, width=64, height=64):
    return ImageRecord(rec_id, width, height, count=CountLabel(count))


def box_record(rec_id, boxes, width=64, height=64):
    return ImageRecord(rec_id, width, height, boxes=tuple(boxes))


def make_dataset(n, name="ds", seed=0):
    rng = random.Random(seed)
    records = tuple(count_record(f"img-{i:05d}", rng.randint(0, 13)) for i in range(n))
    return Dataset(name, records)


@pytest.fixture
def small_dataset():
    return make_dataset(40)
