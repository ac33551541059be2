"""Slow, obviously-correct reference implementations used only by tests."""

from ircount.corpus import aligned_records, annotation_to_count
from ircount.metrics import CountPair, count_metrics
from ircount.postprocess import apply_detector_postprocessing, iou


def naive_nms(boxes, thresh):
    """Independent reference: repeatedly take the best remaining box and
    delete everything overlapping it too much. Returns kept indices."""
    remaining = sorted(range(len(boxes)), key=lambda i: (-boxes[i].score, i))
    kept = []
    while remaining:
        best = remaining.pop(0)
        kept.append(best)
        remaining = [i for i in remaining if iou(boxes[i], boxes[best]) <= thresh]
    return sorted(kept)


def accuracy_at_threshold(pred, gt, conf, nms_iou=0.7):
    """Count accuracy of box predictions at one confidence threshold."""
    pairs = []
    for gt_rec, pred_rec in aligned_records(gt, pred):
        boxes = apply_detector_postprocessing(pred_rec.boxes or (), conf, nms_iou)
        pairs.append(CountPair(gt_rec.id, annotation_to_count(gt_rec).count, len(boxes)))
    return count_metrics(pairs).accuracy
