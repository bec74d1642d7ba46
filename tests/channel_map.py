"""The channel map written out, for the tests.

``BoundaryProjector.apply`` scatters channel coefficients back to
boundary data inside its stacked pass; this helper does it for one list
of channels, so the tests have an independent reference path for the
channel map.
"""

from calderon.dirac import _channels_to_values
from calderon.projector import BoundaryData


def boundary_data_from_channel_coeffs(model, n_y, coeffs):
    """Traces from channel coefficients: ``coeffs`` is a list of
    (channel, (2 * channel.dim, m)) pairs, the two traces stacked."""
    channels = [ch for ch, _ in coeffs]
    vals = [c.reshape(2, ch.dim, -1) for ch, c in coeffs]
    shape = (2, n_y, model.n_fiber, model.m)
    traces = _channels_to_values(vals, channels, n_y, shape)
    return BoundaryData(model, n_y, traces[0], traces[1])
