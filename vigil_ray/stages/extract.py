"""HTML → text extraction: the ``extract`` part of the per-document map
(``stages.document``): ``text`` becomes the extracted body and
``extract_ok`` records whether it reproduced the shipped ``text``."""

from __future__ import annotations

import pyarrow as pa

from vigil_ray.stages.document import DocumentOp

_EXTRACT = DocumentOp(parts=("extract",))


def _extract_batch(batch: pa.Table) -> pa.Table:
    """The extract part alone; unlike the flagship, the result keeps
    ``html`` at its input position."""
    i = batch.schema.get_field_index("html")
    return _EXTRACT(batch).add_column(i, batch.schema.field(i), batch.column(i))
