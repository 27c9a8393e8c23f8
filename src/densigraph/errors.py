"""Exception hierarchy shared across the toolkit."""


class DensigraphError(Exception):
    """Base class for all toolkit errors."""


# ingestion
class OutOfOrderTimestamp(DensigraphError):
    pass


class StorageFull(DensigraphError):
    pass


class MissingManifest(DensigraphError):
    pass


class CorruptManifest(DensigraphError):
    """A manifest line that is not a well-formed record; names path:line."""


class CorruptCatalog(DensigraphError, ValueError):
    """A camera catalog entry that is not a valid camera; names the file.

    Also a ValueError, which load_catalog raised for a bad catalog before.
    """


# density
class ShapeMismatch(DensigraphError):
    pass


class InsufficientFrames(DensigraphError):
    pass


class CorruptTrace(DensigraphError):
    """A density trace CSV that does not parse; names path and line."""


# quality
class DegenerateFeatures(DensigraphError):
    pass


class TooFewPoints(DensigraphError):
    pass


class CorruptLabels(DensigraphError):
    """A labeled-seed JSON file that is not a list of labeled frames; names it."""


# stats_fit
class NonPositiveSample(DensigraphError):
    pass


class DegenerateSample(DensigraphError):
    pass


class NoConvergence(DensigraphError):
    pass


class AllFitsFailed(DensigraphError):
    pass


class InvalidParams(DensigraphError):
    pass


# lrd
class DegenerateSeries(DensigraphError):
    pass


class TooFewScales(DensigraphError):
    pass


class BlockTooLarge(DensigraphError):
    pass


# synth
class InvalidSpec(DensigraphError):
    pass


class InvalidH(DensigraphError):
    pass


class EmbeddingFailure(DensigraphError):
    pass
