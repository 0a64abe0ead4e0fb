"""What the model labs share: an optional background rewrite service."""

from __future__ import annotations


class ServiceLab:
    """Mixin for a lab that has a ``machine`` and routes its rewrites
    through a :class:`~repro.core.resilience.RewriteSupervisor` kept in
    ``supervisor``."""

    #: Optional background rewrite service (see :meth:`attach_service`).
    service = None

    def attach_service(self, **options):
        """Opt this lab into background specialization: rewrites run off
        the callers' critical path through a
        :class:`~repro.service.RewriteService` whose manager routes every
        rewrite through this lab's supervisor (ladder + validation gate).
        The service, its manager and the supervisor charge one registry,
        the supervisor's ``metrics`` (``service.metrics`` names it).
        Service options pass straight through — e.g. ``mode="thread"``
        runs rewrites on worker threads, ``shadow_interval=8`` samples
        warm dispatches made through the lab's ``service.call`` paths
        (``sum_via_service``, ``apply_cell_via_service``),
        ``max_queue_depth=``/``retry_budget=`` bound the queue.  Stored
        on ``self.service`` and returned."""
        from repro.service import RewriteService

        self.service = RewriteService(
            self.machine, rewrite_fn=self.supervisor.rewrite,
            metrics=self.supervisor.metrics, **options,
        )
        return self.service
