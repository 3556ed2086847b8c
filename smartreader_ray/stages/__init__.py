"""Ray Data batch stages: the extraction UDF, metrics fold,
PDF text extraction, media decode / data-URI inlining."""

from .extract import (
    ARTICLE_SCHEMA,
    ExtractBatch,
    article_to_row,
    rows_to_table,
)
from .pdf import PdfTextExtract, make_simple_pdf, pdf_to_text

__all__ = [
    "ARTICLE_SCHEMA",
    "ExtractBatch",
    "article_to_row",
    "rows_to_table",
    "PdfTextExtract",
    "make_simple_pdf",
    "pdf_to_text",
]
