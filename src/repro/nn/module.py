"""Module base class and Parameter container.

The quantization framework relies on four capabilities of :class:`Module`:

* ``named_modules()`` — walk the module graph to decide which operators to
  quantize (standard vs extended scheme, first/last operator detection);
* ``get_submodule`` / ``set_submodule`` — swap a float module for its
  quantized counterpart in place;
* ``state_dict`` / ``load_state_dict`` — snapshot and reload trained weights
  (and, through extra state, the packed weights of quantized wrappers);
* ``train()`` / ``eval()`` — BatchNorm calibration runs the model in a special
  statistics-update mode without touching learnable parameters.

Tracing instrumentation
-----------------------
:mod:`repro.graph` records a forward as a replayable graph by *tracing* it
once.  This module carries the minimal hooks that make that possible without
:mod:`repro.nn` depending on the graph package:

* a per-thread **tracing context** — while a tracer is pushed,
  :meth:`Module.__call__` offers every call to it before (or instead of)
  executing eagerly; the tracer decides which modules are leaves it records
  and which it traces through;
* two global **epoch counters** used for plan-cache invalidation:
  :func:`state_epoch` bumps whenever module state that a stored plan may
  depend on changes (``load_state_dict``, submodule replacement,
  quantization lifecycle transitions), and :func:`hook_epoch` bumps whenever
  a forward hook is registered or removed anywhere.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor

__all__ = [
    "Parameter",
    "Module",
    "EXTRA_STATE_KEY",
    "active_tracer",
    "hook_epoch",
    "bump_hook_epoch",
    "state_epoch",
    "bump_state_epoch",
    "plan_dispatch_suspended",
    "suspend_plan_dispatch",
]

#: state-dict key suffix under which a module's :meth:`Module.get_extra_state`
#: payload is stored (``<module-path>._extra_state``)
EXTRA_STATE_KEY = "_extra_state"


# ----------------------------------------------------------------------
# tracing context (per thread)
# ----------------------------------------------------------------------
_DISPATCH_STATE = threading.local()


def active_tracer():
    """The tracer currently recording on this thread, or ``None``."""
    return getattr(_DISPATCH_STATE, "tracer", None)


def _set_active_tracer(tracer) -> None:
    """Install/clear the thread's tracer (used by :mod:`repro.graph.tracer`)."""
    _DISPATCH_STATE.tracer = tracer


def plan_dispatch_suspended() -> bool:
    """Whether compiled-plan dispatch is disabled on this thread."""
    return getattr(_DISPATCH_STATE, "plan_suspended", False)


@contextmanager
def suspend_plan_dispatch():
    """Run eagerly even on a model with a plan cache attached (per thread).

    The plan cache itself uses this while running the eager fallback (so the
    fallback does not re-enter the dispatcher), and callers can use it to
    force a genuinely eager forward for comparison against plan replay.
    """
    prev = plan_dispatch_suspended()
    _DISPATCH_STATE.plan_suspended = True
    try:
        yield
    finally:
        _DISPATCH_STATE.plan_suspended = prev


# ----------------------------------------------------------------------
# invalidation epochs
# ----------------------------------------------------------------------
_EPOCH_LOCK = threading.Lock()
_HOOK_EPOCH = 0
_STATE_EPOCH = 0


def hook_epoch() -> int:
    """Monotonic counter bumped whenever a forward hook is added or removed."""
    return _HOOK_EPOCH


def bump_hook_epoch() -> None:
    global _HOOK_EPOCH
    with _EPOCH_LOCK:
        _HOOK_EPOCH += 1


def state_epoch() -> int:
    """Monotonic counter bumped whenever plan-relevant module state changes.

    Deliberately global and coarse: any ``load_state_dict``, submodule
    replacement or quantization lifecycle transition (calibration start/stop,
    convert, serving-mode change) anywhere in the process invalidates every
    cached plan.  Re-tracing is cheap relative to the traffic a plan serves,
    and a global integer keeps the per-forward validity check O(1).
    """
    return _STATE_EPOCH


def bump_state_epoch() -> None:
    global _STATE_EPOCH
    with _EPOCH_LOCK:
        _STATE_EPOCH += 1


class Parameter(Tensor):
    """A Tensor that is registered as a learnable parameter of a Module."""

    def __init__(self, data, requires_grad: bool = True, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=requires_grad, name=name)


class HookHandle:
    """Removable handle returned by :meth:`Module.register_forward_hook`."""

    _counter = 0

    def __init__(self, registry) -> None:
        HookHandle._counter += 1
        self.hook_id = HookHandle._counter
        self._registry = registry

    def remove(self) -> None:
        if self._registry.pop(self.hook_id, None) is not None:
            # removal can make a previously hook-blocked module traceable
            # again — let plan caches revalidate (see register_forward_hook)
            bump_hook_epoch()


class Module:
    """Base class for all neural network modules."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._forward_hooks: "OrderedDict[int, object]" = OrderedDict()
        self.training = True

    # ------------------------------------------------------------------
    # attribute plumbing
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-learnable persistent array (e.g. BatchNorm running stats)."""
        self._buffers[name] = np.asarray(value, dtype=np.float32)
        object.__setattr__(self, name, self._buffers[name])

    def register_parameter(self, name: str, param: Parameter) -> None:
        self._parameters[name] = param
        object.__setattr__(self, name, param)

    def add_module(self, name: str, module: "Module") -> None:
        # replacing a submodule changes the structure a compiled plan traced
        # through (quantize wrappers are swapped in via set_submodule)
        bump_state_epoch()
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def children(self) -> Iterator["Module"]:
        return iter(self._modules.values())

    def named_children(self) -> Iterator[Tuple[str, "Module"]]:
        return iter(self._modules.items())

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix, self
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(child_prefix)

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}.{name}" if prefix else name), param
        for mod_name, child in self._modules.items():
            child_prefix = f"{prefix}.{mod_name}" if prefix else mod_name
            yield from child.named_parameters(child_prefix)

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield (f"{prefix}.{name}" if prefix else name), buf
        for mod_name, child in self._modules.items():
            child_prefix = f"{prefix}.{mod_name}" if prefix else mod_name
            yield from child.named_buffers(child_prefix)

    def num_parameters(self) -> int:
        """Total number of scalar parameters (used for model-size classes)."""
        return int(sum(p.size for p in self.parameters()))

    def size_mb(self, bytes_per_param: int = 4) -> float:
        """Model size in megabytes assuming FP32 storage (paper Figure 5 size classes)."""
        return self.num_parameters() * bytes_per_param / (1024.0**2)

    # ------------------------------------------------------------------
    # submodule access / replacement
    # ------------------------------------------------------------------
    def get_submodule(self, target: str) -> "Module":
        """Return the submodule at dotted path ``target`` (empty string = self)."""
        if target == "":
            return self
        module: Module = self
        for part in target.split("."):
            if part not in module._modules:
                raise KeyError(f"no submodule named {target!r} (missing {part!r})")
            module = module._modules[part]
        return module

    def set_submodule(self, target: str, new_module: "Module") -> None:
        """Replace the submodule at dotted path ``target`` with ``new_module``."""
        if target == "":
            raise ValueError("cannot replace the root module")
        *parent_path, leaf = target.split(".")
        parent = self.get_submodule(".".join(parent_path))
        if leaf not in parent._modules:
            raise KeyError(f"no submodule named {target!r}")
        parent.add_module(leaf, new_module)

    # ------------------------------------------------------------------
    # state dict
    # ------------------------------------------------------------------
    def get_extra_state(self):
        """Module-local state composed into :meth:`state_dict` beyond params/buffers.

        Return ``None`` (the default) for no extra state, or a JSON-like tree
        (nested dicts/lists of numpy arrays, scalars and strings).  The payload
        is stored under ``<module-path>._extra_state`` and handed back to
        :meth:`set_extra_state` by :meth:`load_state_dict`.  The quantization
        wrappers use this to carry packed 8-bit weight storage and calibrated
        activation ranges through checkpoints without materialising float32.
        """
        return None

    def set_extra_state(self, state) -> None:
        """Restore the payload produced by :meth:`get_extra_state`."""
        raise NotImplementedError(
            f"{type(self).__name__} received extra state but does not implement set_extra_state()"
        )

    def state_dict_excluded_keys(self) -> Tuple[str, ...]:
        """Module-local parameter/buffer names omitted from :meth:`state_dict`.

        Converted quantization wrappers exclude their bound weight view here:
        the packed codes in the extra state are the storage of record and the
        float32 view must never be materialised just to snapshot it.
        """
        return ()

    def _excluded_state_keys(self) -> set:
        excluded = set()
        for name, module in self.named_modules():
            for local in module.state_dict_excluded_keys():
                excluded.add(f"{name}.{local}" if name else local)
        return excluded

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Snapshot of all parameters and buffers as (copied) numpy arrays.

        Modules that define :meth:`get_extra_state` contribute one additional
        ``<module-path>._extra_state`` entry holding their payload tree.
        """
        state: Dict[str, np.ndarray] = {}
        excluded = self._excluded_state_keys()
        for name, param in self.named_parameters():
            if name not in excluded:
                state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            if name not in excluded:
                state[name] = buf.copy()
        for name, module in self.named_modules():
            extra = module.get_extra_state()
            if extra is not None:
                state[f"{name}.{EXTRA_STATE_KEY}" if name else EXTRA_STATE_KEY] = extra
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameters and buffers (in place) from :meth:`state_dict` output.

        ``_extra_state`` entries are routed to the owning module's
        :meth:`set_extra_state` *after* all plain arrays have been written, so
        packed storage restored from extra state wins over any float view of
        the same weight that was also in the dict.

        Every entry is checked (unexpected keys when ``strict``, shapes,
        read-only parameters) before any is written, so a load that raises
        leaves the model as it was.
        """
        params = dict(self.named_parameters())
        buffers = {name: (owner, key) for owner, name, key in self._iter_buffer_owners()}
        modules = dict(self.named_modules())
        unexpected: List[str] = []
        writes: List[Tuple[np.ndarray, np.ndarray]] = []
        extras: List[Tuple[Module, object]] = []
        for name, value in state.items():
            if name == EXTRA_STATE_KEY or name.endswith(f".{EXTRA_STATE_KEY}"):
                owner_path = name[: -len(EXTRA_STATE_KEY)].rstrip(".")
                if owner_path in modules:
                    extras.append((modules[owner_path], value))
                elif strict:
                    unexpected.append(name)
                continue
            if name in params:
                target = params[name].data
            elif name in buffers:
                owner, key = buffers[name]
                target = owner._buffers[key]
            else:
                if strict:
                    unexpected.append(name)
                continue
            if target.shape != np.shape(value):
                raise ValueError(
                    f"shape mismatch for {name}: model {target.shape} vs state {np.shape(value)}"
                )
            if not target.flags.writeable:
                raise RuntimeError(
                    f"cannot load {name}: the parameter is read-only because it is "
                    "derived from packed 8-bit codes; load a packed checkpoint with "
                    "repro.serialization.load_quantized or re-quantize the float model"
                )
            writes.append((target, value))
        if unexpected:
            raise KeyError(f"unexpected keys in state dict: {unexpected}")
        bump_state_epoch()  # loaded weights invalidate stored plans
        for target, value in writes:
            target[...] = value
        for module, value in extras:
            module.set_extra_state(value)

    def _iter_buffer_owners(self, prefix: str = "") -> Iterator[Tuple["Module", str, str]]:
        for key in self._buffers:
            full = f"{prefix}.{key}" if prefix else key
            yield self, full, key
        for mod_name, child in self._modules.items():
            child_prefix = f"{prefix}.{mod_name}" if prefix else mod_name
            yield from child._iter_buffer_owners(child_prefix)

    # ------------------------------------------------------------------
    # modes
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def apply(self, fn) -> "Module":
        """Apply ``fn`` to self and every submodule (post-order on children first)."""
        for child in self._modules.values():
            child.apply(fn)
        fn(self)
        return self

    # ------------------------------------------------------------------
    # call protocol / forward hooks
    # ------------------------------------------------------------------
    def register_forward_hook(self, hook) -> "HookHandle":
        """Register ``hook(module, inputs, output)`` to run after every forward call.

        Used by SmoothQuant, the distribution-analysis benchmarks and the
        calibration machinery to observe intermediate activations without
        modifying model code.  Returns a handle whose ``remove()`` detaches it.

        Interaction with compiled plans (:mod:`repro.graph`): a hooked module
        **forces eager execution**.  Tracing refuses to record through any
        module carrying forward hooks (the plan would silently skip them at
        replay), so a forward involving a hooked module always falls back to
        the eager path, and registering a hook invalidates every cached plan
        that traced through this module (plans that never touched it stay
        live).  ``handle.remove()`` makes the module traceable again on the
        next miss.  Both transitions are signalled through the global
        :func:`hook_epoch` counter, so the steady-state plan lookup stays
        O(1) while hooks are stable.
        """
        handle = HookHandle(self._forward_hooks)
        self._forward_hooks[handle.hook_id] = hook
        bump_hook_epoch()
        return handle

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        tracer = active_tracer()
        if tracer is not None:
            recorded, output = tracer.visit_call(self, args, kwargs)
            if recorded:
                return output
        else:
            # compiled-plan dispatch: only roots that went through
            # repro.graph.cache.install_plan_cache carry the attribute
            cache = self.__dict__.get("_plan_cache")
            if cache is not None:
                replayed, output = cache.dispatch(self, args, kwargs)
                if replayed:
                    return output
        output = self.forward(*args, **kwargs)
        if self._forward_hooks:
            for hook in list(self._forward_hooks.values()):
                hook(self, args, output)
        return output

    def extra_repr(self) -> str:
        return ""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lines = [f"{type(self).__name__}({self.extra_repr()}"]
        for name, child in self._modules.items():
            child_repr = repr(child).replace("\n", "\n  ")
            lines.append(f"  ({name}): {child_repr}")
        lines.append(")")
        return "\n".join(lines) if len(lines) > 2 else f"{type(self).__name__}({self.extra_repr()})"
