"""Experiment variant registry.

A *variant* names one column of the paper's result matrices: a baseline
predictor, optionally a Branch Runahead configuration, optionally extra
``simulate()`` kwargs.  Three kinds of token resolve here:

* **predictor-only variants** — every entry of
  :data:`~repro.predictors.registry.PREDICTORS` is addressable by its own
  name (``"tage64"``); such cells attach nothing beyond the predictor, so
  their MPKI is a pure function of the committed branch stream and
  ``outputs="mpki"`` cells may take the replay fast path;
* **named BR variants** — registered with :func:`register_variant`
  (``"mini"``, ``"mtage+big"``, …), each a factory returning
  ``simulate()`` kwargs;
* **``spec:`` tokens** — :func:`spec_variant` composes any registered
  predictor × BR-config pair into a plain string
  (``"spec:tage80+mini"``), so ad-hoc combinations cache and pickle
  exactly like named variants;
* **override tokens** — :func:`override_variant` sets Branch Runahead
  config fields on any token with a BR config (``"mini[hbt_entries=8]"``,
  the Figure 13 sweeps' "Mini with one field changed"), so such cells
  cache, resume and run on a pool like any other.

Because predictor-only variants fall through to the predictor registry, a
single ``@register_predictor`` definition is enough to make a new
predictor runnable through ``Session.run``/``run_cells``, the CLI, and
``repro list`` — no second registration.
"""

from __future__ import annotations

import ast
from typing import Any, Callable, Dict, List, Tuple

from repro.core.config import UARCH_CONFIGS
from repro.predictors.registry import PREDICTORS
from repro.registry import Registry, UnknownComponentError

#: name -> zero-argument factory returning ``simulate()`` kwargs.
BR_VARIANTS = Registry("variant")


def register_variant(name: str, **meta: Any) -> Callable[..., Any]:
    """Decorator registering a named variant (a simulate-kwargs factory)."""
    if name in PREDICTORS:
        raise ValueError(
            f"variant name {name!r} collides with a registered predictor "
            f"(predictor names are implicitly predictor-only variants)")
    return BR_VARIANTS.register(name, **meta)


# -- built-in named variants (the paper's figure columns) ------------------

def _kwargs(predictor: str = "tage64", config: str = None,
            **extra: Any) -> dict:
    kwargs: dict = dict(predictor=PREDICTORS.get(predictor)())
    if config is not None:
        kwargs["br_config"] = UARCH_CONFIGS.get(config)()
    kwargs.update(extra)
    return kwargs


@register_variant("core_only")
def _core_only() -> dict:
    return _kwargs(config="core-only")


@register_variant("mini")
def _mini() -> dict:
    return _kwargs(config="mini")


@register_variant("big")
def _big() -> dict:
    return _kwargs(config="big")


@register_variant("mtage+big")
def _mtage_big() -> dict:
    return _kwargs(predictor="mtage", config="big")


@register_variant("mini-nonspec")
def _mini_nonspec() -> dict:
    from repro.core import config as br_config
    return _kwargs(
        config=None,
        br_config=br_config.mini(
            initiation_mode=br_config.NON_SPECULATIVE))


@register_variant("mini-indep")
def _mini_indep() -> dict:
    from repro.core import config as br_config
    return _kwargs(
        config=None,
        br_config=br_config.mini(
            initiation_mode=br_config.INDEPENDENT_EARLY))


@register_variant("mini-oracle-merge")
def _mini_oracle_merge() -> dict:
    return _kwargs(config="mini", track_merge_oracle=True)


# -- token resolution ------------------------------------------------------

def variant_names() -> List[str]:
    """Every addressable named variant, predictor-only names first.

    Ordering is registration order within each group.
    """
    return PREDICTORS.names() + BR_VARIANTS.names()


def spec_variant(predictor: str, config: str = None) -> str:
    """Build a ``spec:`` variant token for any predictor × config pair.

    Tokens are plain strings, so they cache and pickle exactly like named
    variants: ``spec_variant("tage80", "mini") == "spec:tage80+mini"``.
    """
    PREDICTORS.entry(predictor)  # raises with suggestions if unknown
    if config is not None:
        UARCH_CONFIGS.entry(config)
    return f"spec:{predictor}+{config or 'none'}"


def override_variant(base: str, **fields: Any) -> str:
    """``base`` with BR config ``fields`` set: ``"mini[hbt_entries=8]"``.

    Fields are sorted and values written as their ``repr``, so one
    configuration has one token, and one cell key.
    """
    if not fields:
        return base
    body = ",".join(f"{name}={fields[name]!r}" for name in sorted(fields))
    return f"{base}[{body}]"


def _split_overrides(variant: str) -> Tuple[str, Dict[str, Any]]:
    """``(base, fields)`` of a token; a malformed or non-canonical
    override token raises ``ValueError`` naming it."""
    base, bracket, body = variant.partition("[")
    if not bracket:
        return variant, {}
    try:
        if not body.endswith("]"):
            raise ValueError("missing closing ']'")
        call = ast.parse(f"f({body[:-1]})", mode="eval").body
        if not isinstance(call, ast.Call) or call.args or not call.keywords \
                or any(keyword.arg is None for keyword in call.keywords):
            raise ValueError("expected field=value pairs")
        fields = {keyword.arg: ast.literal_eval(keyword.value)
                  for keyword in call.keywords}
    except (SyntaxError, ValueError) as error:
        raise ValueError(
            f"malformed override token {variant!r}: {error}") from None
    canonical = override_variant(base, **fields)
    if canonical != variant:
        raise ValueError(f"override token {variant!r} is not canonical; "
                         f"write it as {canonical!r}")
    return base, fields


def variant_kwargs(variant: str) -> dict:
    """Materialize ``simulate()`` kwargs for any variant token."""
    base, fields = _split_overrides(variant)
    kwargs = _base_kwargs(base)
    if fields:
        config = kwargs.get("br_config")
        if config is None:
            raise ValueError(f"variant {variant!r}: {base!r} has no BR "
                             f"config to override")
        for name, value in fields.items():
            if name not in vars(config):
                raise AttributeError(f"variant {variant!r}: unknown BR "
                                     f"config field {name!r}")
            setattr(config, name, value)
    return kwargs


def _base_kwargs(variant: str) -> dict:
    if variant.startswith("spec:"):
        predictor, _, config = variant[5:].partition("+")
        kwargs = dict(predictor=PREDICTORS.get(predictor)())
        if config and config != "none":
            kwargs["br_config"] = UARCH_CONFIGS.get(config)()
        return kwargs
    if variant in BR_VARIANTS:
        return BR_VARIANTS.get(variant)()
    if variant in PREDICTORS:
        return dict(predictor=PREDICTORS.get(variant)())
    raise UnknownComponentError("variant", variant, variant_names())


def is_predictor_only(variant: str) -> bool:
    """True when the variant attaches nothing beyond a baseline predictor."""
    if variant.startswith("spec:"):
        return variant.endswith("+none")
    return variant in PREDICTORS and variant not in BR_VARIANTS

