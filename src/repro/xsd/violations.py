"""The wording of Definition-3 violations, shared by every validator.

The tree validator, the streaming engine (compat loop and dense scan)
and incremental revalidation must report byte-identical messages — the
differential suites compare them as strings, and callers classify them
by substring.  Each template lives here once; ``path`` is the
element's unindexed path (``/doc/item``), ``name`` its label.
"""

from __future__ import annotations


def child_not_allowed(path, child, parent, type_name):
    """``child`` has no type under ``parent`` (reported at the parent)."""
    return (
        f"{path}: element <{child}> is not allowed under <{parent}> "
        f"(type {type_name})"
    )


def root_not_declared(name, allowed):
    """The root label is not in the start set; ``allowed`` its names."""
    return (
        f"root element <{name}> is not declared "
        f"(allowed: {sorted(allowed)})"
    )


def content_mismatch(path, name, children, type_name):
    """The child word ``children`` is not in the content model."""
    shown = " ".join(children)
    return (
        f"{path}: children of <{name}> [{shown or 'none'}] do not match "
        f"the content model of type {type_name}"
    )


def regex_mismatch(path, name, children, regex):
    """:meth:`ContentModel.check_node`'s form, citing the expression."""
    shown = " ".join(children) if children else "(no children)"
    return (
        f"{path}: children of <{name}> [{shown}] do not match "
        f"content model {regex}"
    )


def text_not_allowed(path, name, type_name=None):
    """Non-whitespace text under a non-mixed type (typed form when the
    type is known)."""
    if type_name is None:
        return f"{path}: element <{name}> may not contain text"
    return (
        f"{path}: element <{name}> (type {type_name}) may not contain text"
    )


def missing_attribute(path, name, attribute):
    """A required attribute is absent."""
    return (
        f"{path}: element <{name}> is missing required attribute "
        f"{attribute!r}"
    )


def undeclared_attribute(path, name, attribute):
    """An attribute the element's type does not declare."""
    return (
        f"{path}: element <{name}> has undeclared attribute {attribute!r}"
    )


def second_root(name):
    """An element event after the root closed (event streams only; the
    parser rejects such text outright)."""
    return (
        f"/{name}: document has more than one root element "
        f"(<{name}> follows the closed root)"
    )
