"""Quality-of-service classes and their scheduling weights.

The event-driven engine (:mod:`repro.server.engine`) schedules admitted
requests by **class**, not by strict alternation: every client belongs to
one of three QoS classes -- ``interactive`` (the default: short
request/response traffic that wants latency), ``bulk`` (uploads and
scans that want throughput), and ``maintenance`` (background tooling
that should only soak up leftover capacity).  The scheduler visits the
classes round-robin and gives each visit a request allowance equal to
the class weight (:data:`DEFAULT_QOS_WEIGHTS`), so a backlogged bulk
client can no longer double an interactive client's queueing delay by
keeping the old strict-alternation loop busy.

Admission is one rule for every class: a request is answered
``ST_BUSY`` once ``max_pending`` requests wait.

>>> [DEFAULT_QOS_WEIGHTS[qos] for qos in QOS_CLASSES]
[4, 2, 1]
"""

from __future__ import annotations

from typing import Dict

#: The latency class: short request/response traffic, served first.
QOS_INTERACTIVE = "interactive"

#: The throughput class: uploads, scans, anything that queues deep.
QOS_BULK = "bulk"

#: The background class: tooling that should only soak up leftovers.
QOS_MAINTENANCE = "maintenance"

#: Scheduler visiting order.
QOS_CLASSES = (QOS_INTERACTIVE, QOS_BULK, QOS_MAINTENANCE)

#: Requests granted per scheduler visit.  With every client in one class
#: (the default) the weights are inert: the schedule degenerates to the
#: old round-robin order exactly.
DEFAULT_QOS_WEIGHTS: Dict[str, int] = {
    QOS_INTERACTIVE: 4,
    QOS_BULK: 2,
    QOS_MAINTENANCE: 1,
}
