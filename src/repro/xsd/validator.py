"""Typed validation of XML documents against formal XSDs (Definition 2).

A document conforms iff a *correct typing* exists: the root gets a start
type, each node a type for its own label, and each node's children (with
their types) spell a word in the node's content model.  EDC makes the
typing unique, so validation is a single top-down pass: the child's type is
determined by its name and the parent's type.
"""

from __future__ import annotations

from repro.xsd import violations as wording
from repro.xsd.typednames import TypedName


class XSDValidationReport:
    """Outcome of validating one document against an XSD.

    Attributes:
        violations: list of human-readable violation strings.
        typing: dict mapping each typed node to its assigned type name, in
            document order; partial when validation failed early.  Keys are
            stable XPath-style indexed paths such as
            ``/doc[1]/item[2]`` (the ordinal counts same-named siblings,
            1-based), so they survive the document tree being garbage
            collected and distinguish equal-named siblings — unlike the
            ``id(node)`` keys used previously, which could be recycled by
            the allocator and were opaque to callers.
    """

    __slots__ = ("violations", "typing")

    def __init__(self):
        self.violations = []
        self.typing = {}

    @property
    def valid(self):
        return not self.violations

    def type_at(self, path):
        """The type assigned at an indexed path, or ``None``."""
        return self.typing.get(path)


def validate_xsd(xsd, document):
    """Validate ``document`` against ``xsd``.

    Returns:
        An :class:`XSDValidationReport`; ``report.typing`` is the paper's
        (unique) typing µ restricted to the nodes that received a type.
    """
    from repro.resilience.faults import probe

    probe("validate")
    report = XSDValidationReport()
    root = document.root
    root_type = xsd.start_type(root.name)
    if root_type is None:
        report.violations.append(
            wording.root_not_declared(root.name, _start_names(xsd))
        )
        return report
    _validate_node(
        xsd, root, root_type, "/" + root.name, f"/{root.name}[1]", report
    )
    return report


def _start_names(xsd):
    names = set()
    for typed in xsd.start:
        names.add(typed.element_name if isinstance(typed, TypedName)
                  else typed.split("[", 1)[0])
    return names


def _validate_node(xsd, node, type_name, path, typed_path, report):
    report.typing[typed_path] = type_name
    model = xsd.rho[type_name]

    # Children must spell a word of the *typed* content model.  By EDC the
    # typed word is determined by the child names, so it suffices to match
    # the erased word against the erased expression -- but we build the
    # typed word anyway so nodes whose name has no type in this model are
    # reported precisely.
    child_types = []
    recognized = True
    for child in node.children:
        child_type = xsd.child_type(type_name, child.name)
        if child_type is None:
            report.violations.append(wording.child_not_allowed(
                path, child.name, node.name, type_name
            ))
            recognized = False
            continue
        child_types.append((child, child_type))
    if recognized:
        word = [
            str(TypedName(child.name, child_type))
            for child, child_type in child_types
        ]
        if not model.matches_children(word):
            report.violations.append(wording.content_mismatch(
                path, node.name, node.ch_str(), type_name
            ))
    if not model.mixed and node.has_text():
        report.violations.append(
            wording.text_not_allowed(path, node.name, type_name)
        )
    declared = {use.name for use in model.attributes}
    for use in model.attributes:
        if use.required and use.name not in node.attributes:
            report.violations.append(
                wording.missing_attribute(path, node.name, use.name)
            )
    for attr_name in node.attributes:
        if attr_name not in declared:
            report.violations.append(
                wording.undeclared_attribute(path, node.name, attr_name)
            )
    ordinals = {}
    for child, child_type in child_types:
        ordinal = ordinals[child.name] = ordinals.get(child.name, 0) + 1
        _validate_node(
            xsd,
            child,
            child_type,
            f"{path}/{child.name}",
            f"{typed_path}/{child.name}[{ordinal}]",
            report,
        )
