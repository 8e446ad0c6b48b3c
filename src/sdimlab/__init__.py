"""Certified connected-cover counts for plane continua and IFS attractors.

Two worlds under one roof.  The exact side builds shark-teeth truncations
as rational plane graphs and brackets their connected-cover numbers with
re-checkable certificates; its per-scale ratios grow without any visible
ceiling.  The floating-point side finds, for self-similar attractors, the
scale from which word covers keep the same ratios within a slack of
ln(n)/-ln(ratio); it measures in floats and certifies nothing.  The
dimension module sweeps both and puts the contrast side by side.

Every submodule is imported on first use (PEP 562), so a command pays
only for the layers it runs: `from sdimlab import sweep` loads
`dimension`, and `import sdimlab` alone loads nothing.
"""

from importlib import import_module

__version__ = "0.1.0"

# Submodule -> the names the package exports from it.
_EXPORTS = {
    "continuum": ("ToothSequenceSpec", "build_shark_teeth", "n_k",
                  "next_amplitude_bound", "predicted_counts",
                  "spec_from_meta", "tooth_height", "tooth_polyline"),
    "cover": ("CoverCertificate", "SeparationCertificate", "TruncationGuard",
              "certificate_from_json_dict", "check_cover", "check_separation",
              "lower_separation", "s_bounds", "truncation_guard",
              "upper_cover"),
    "dimension": ("DimensionProfile", "ScaleRow", "ifs_bound_report",
                  "make_row", "read_profile_csv", "scale_ratio",
                  "sdim_estimate", "sweep", "write_profile_csv"),
    "errors": ("BudgetExceeded", "DisconnectedInput", "HostMismatch",
               "ParseError", "SdimlabError", "SizeLimit", "TooFewScales",
               "VerificationFailure"),
    "exactcore": (),
    "geom": ("PLGraph", "Point", "Segment", "arrange", "format_rational",
             "parse_rational", "point", "segment"),
    "ifs": ("AffineMap2", "IFSSpec", "attractor_hull", "cloud_diameter",
            "find_k0", "ifs_dimension_bound", "lip_affine"),
    "limits": ("Budget",),
    "render": ("render_cloud_svg", "render_svg"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def _lazy(module: str, name: str):
    """A stand-in for `sdimlab.<module>.<name>` that imports the module
    when it is first called.

    `cli` and `dimension` bind the functions they call to these, so that a
    command loads only the layers it runs while each name stays bound in
    the namespace its caller reads it from, where a tracer can wrap it.
    The function is looked up on every call, so a patch on its own module
    is seen too.
    """
    path = f"{__name__}.{module}"

    def forward(*args, **kwargs):
        return getattr(import_module(path), name)(*args, **kwargs)

    forward.__name__ = forward.__qualname__ = name
    forward.__doc__ = f"Forwards to `{path}.{name}`."
    return forward
