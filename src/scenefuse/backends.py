"""Client layer for the remote text-generation roles.

Five roles share one mechanism: dialogue_summarizer, fusion_summarizer,
fact_extractor, fact_judge, vision_captioner. Each role has a prompt
template (externalized file, shipped default), a transport (HTTP
chat-completion wire shape, or a deterministic mock), a persistent
content-addressed response cache, retry with exponential backoff for
transient failures, and an optional rate limit. Clients are safe to
share across threads.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import requests

from .errors import (
    AuthError,
    BackendUnavailable,
    ConfigError,
    EmptyCompletion,
    QuotaExceeded,
    read_json,
    read_text,
)

DIALOGUE_SUMMARIZER = "dialogue_summarizer"
FUSION_SUMMARIZER = "fusion_summarizer"
FACT_EXTRACTOR = "fact_extractor"
FACT_JUDGE = "fact_judge"
VISION_CAPTIONER = "vision_captioner"
ROLES = (
    DIALOGUE_SUMMARIZER,
    FUSION_SUMMARIZER,
    FACT_EXTRACTOR,
    FACT_JUDGE,
    VISION_CAPTIONER,
)

MALFORMED_SIGNAL = "MALFORMED"


@dataclass(frozen=True)
class BackendRequest:
    """One completion; ``variables`` (read-only) were rendered into ``prompt``."""

    role: str
    prompt: str
    model_name: str = "default"
    max_output_tokens: int = 512
    temperature: float = 0.0
    variables: Mapping[str, str] = field(default_factory=dict, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "variables", MappingProxyType(dict(self.variables)))


def write_atomic(path: Path, text: str) -> None:
    """Write text through a per-thread temp file and os.replace.

    A reader sees the old file or the whole new one, never a partial write.
    """
    tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def cache_key(request: BackendRequest) -> str:
    """sha256 over every field but ``variables``; any byte difference separates keys."""
    payload = json.dumps(
        {
            "role": request.role,
            "prompt": request.prompt,
            "model_name": request.model_name,
            "max_output_tokens": request.max_output_tokens,
            "temperature": request.temperature,
        },
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class RateLimiter:
    """Serializes request starts to at most one per interval."""

    def __init__(self, per_second: float):
        self._interval = 1.0 / per_second
        self._lock = threading.Lock()
        self._next = 0.0

    def acquire(self) -> None:
        with self._lock:
            now = time.monotonic()
            start = max(now, self._next)
            self._next = start + self._interval
        if start > now:
            time.sleep(start - now)


class MockTransport:
    """Deterministic in-process transport: ``respond(request)`` is the completion."""

    def __init__(self, respond: Callable[[BackendRequest], str]):
        self.respond = respond

    def send(self, request: BackendRequest) -> str:
        return self.respond(request)


class HttpTransport:
    """JSON-over-HTTP chat-completion wire shape.

    The auth secret is read from the environment variable named by
    ``auth_env`` at request time and never appears in config files.
    """

    def __init__(self, endpoint: str, auth_env: str | None = None, timeout: float = 60.0):
        self.endpoint = endpoint
        self.auth_env = auth_env
        self.timeout = timeout
        self._session = requests.Session()

    def send(self, request: BackendRequest) -> str:
        headers = {}
        if self.auth_env:
            secret = os.environ.get(self.auth_env)
            if not secret:
                raise AuthError(f"environment variable {self.auth_env} is not set")
            headers["Authorization"] = f"Bearer {secret}"
        payload = {
            "model": request.model_name,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
        }
        try:
            response = self._session.post(
                self.endpoint, json=payload, headers=headers, timeout=self.timeout
            )
        except requests.RequestException as exc:
            raise BackendUnavailable(f"{self.endpoint}: {exc}") from exc
        if response.status_code in (401, 403):
            raise AuthError(f"{self.endpoint}: HTTP {response.status_code}")
        if response.status_code == 429:
            raise QuotaExceeded(f"{self.endpoint}: HTTP 429")
        if response.status_code != 200:
            raise BackendUnavailable(f"{self.endpoint}: HTTP {response.status_code}")
        try:
            return response.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendUnavailable(f"{self.endpoint}: malformed response body") from exc


class BackendClient:
    """One transport plus cache, retry, and rate limiting.

    ``calls`` counts completed upstream requests; cache hits leave it
    untouched. Cache entries are one JSON file per request digest,
    written to a temp name and renamed so concurrent writers are safe.
    """

    def __init__(
        self,
        transport,
        cache_dir: str | Path | None = None,
        rate_limit: float | None = None,
        max_attempts: int = 3,
        backoff: float = 0.5,
    ):
        self.transport = transport
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.limiter = RateLimiter(rate_limit) if rate_limit else None
        self.max_attempts = max_attempts
        self.backoff = backoff
        self.calls = 0
        self._lock = threading.Lock()
        if self.cache_dir:
            self.cache_dir.mkdir(parents=True, exist_ok=True)

    def _cache_path(self, digest: str) -> Path:
        return self.cache_dir / f"{digest}.json"

    def _cache_read(self, digest: str) -> str | None:
        """Cached completion, or None on a miss.

        An entry that does not decode, lacks a string ``completion`` or
        records another digest counts as a miss; the fresh completion
        then overwrites it.
        """
        if not self.cache_dir:
            return None
        path = self._cache_path(digest)
        if not path.is_file():
            return None
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(record, dict) or record.get("digest", digest) != digest:
            return None
        completion = record.get("completion")
        return completion if isinstance(completion, str) else None

    def _cache_write(self, digest: str, request: BackendRequest, completion: str) -> None:
        if not self.cache_dir:
            return
        record = {
            "digest": digest,
            "role": request.role,
            "model_name": request.model_name,
            "prompt": request.prompt,
            "completion": completion,
        }
        write_atomic(self._cache_path(digest), json.dumps(record, ensure_ascii=False, indent=1))

    def complete(self, request: BackendRequest, refresh: bool = False) -> str:
        """Cached completion; ``refresh`` forces one fresh upstream call."""
        digest = cache_key(request)
        completion = None if refresh else self._cache_read(digest)
        if completion is None:
            completion = self._fetch(digest, request)
        return completion

    def _fetch(self, digest: str, request: BackendRequest) -> str:
        """One upstream completion, retried on BackendUnavailable, then cached."""
        last_error: BackendUnavailable | None = None
        for attempt in range(self.max_attempts):
            if attempt:
                time.sleep(self.backoff * 2 ** (attempt - 1))
            if self.limiter:
                self.limiter.acquire()
            try:
                completion = self.transport.send(request)
            except BackendUnavailable as exc:
                last_error = exc
                continue
            with self._lock:
                self.calls += 1
            self._cache_write(digest, request, completion)
            return completion
        raise BackendUnavailable(
            f"{request.role}: {self.max_attempts} attempts failed ({last_error})"
        )


def render_template(template: str, **variables: str) -> str:
    """Fill ``{name}`` markers literally; untouched text passes through."""
    out = template
    for key, value in variables.items():
        out = out.replace("{" + key + "}", value)
    return out


@dataclass
class RoleRuntime:
    client: BackendClient
    template: str
    model_name: str = "default"
    max_output_tokens: int = 512
    temperature: float = 0.0


@dataclass
class Backends:
    """Role -> runtime map used by every pipeline stage."""

    roles: dict[str, RoleRuntime] = field(default_factory=dict)

    def runtime(self, role: str) -> RoleRuntime:
        try:
            return self.roles[role]
        except KeyError:
            raise ConfigError(f"no backend configured for role {role!r}") from None

    def complete(self, role: str, refresh: bool = False, **variables: str) -> str:
        rt = self.runtime(role)
        request = BackendRequest(
            role=role,
            prompt=render_template(rt.template, **variables),
            model_name=rt.model_name,
            max_output_tokens=rt.max_output_tokens,
            temperature=rt.temperature,
            variables=variables,
        )
        return rt.client.complete(request, refresh=refresh)

    @property
    def upstream_calls(self) -> int:
        return sum(rt.client.calls for rt in self.roles.values())


def default_template(role: str) -> str:
    return (
        resources.files("scenefuse").joinpath(f"data/prompts/{role}.txt")
        .read_text(encoding="utf-8")
    )


# ---------------------------------------------------------------------------
# Deterministic mock behaviors
# ---------------------------------------------------------------------------
# Each mock reads the variables its role's template is rendered from, so
# it answers the same under any prompt_template.


def normalize_fact(text: str) -> str:
    """Lowercase, collapse whitespace, strip terminal punctuation."""
    return re.sub(r"[.!?]+$", "", " ".join(text.split())).lower()


def _mock_dialogue_summary(request: BackendRequest) -> str:
    speakers: list[str] = []
    first_utterance = ""
    for line in request.variables["scene"].splitlines():
        name, _, text = line.partition(":")
        if not _:
            continue
        name = name.strip()
        if name and name not in speakers:
            speakers.append(name)
        if not first_utterance and text.strip():
            first_utterance = " ".join(text.split()[:8])
    cast = " and ".join(speakers) if speakers else "The characters"
    return f"{cast} talk. It begins with: {first_utterance}".strip()


def _mock_fusion_summary(request: BackendRequest) -> str:
    words = request.variables["notes"].split()
    return "Episode recap: " + " ".join(words[:60])


def _mock_fact_extractor(request: BackendRequest) -> str:
    # one fact: the sentence itself
    return request.variables["sentence"].strip()


def _mock_fact_judge(request: BackendRequest) -> str:
    fact, reference = request.variables["fact"], request.variables["reference"]
    return "True" if normalize_fact(fact) in normalize_fact(reference) else "False"


def _mock_vision_captioner(request: BackendRequest) -> str:
    return f"a man and a woman are standing near {request.variables['image'].strip()}"


_DEFAULT_MOCKS: dict[str, Callable[[BackendRequest], str]] = {
    DIALOGUE_SUMMARIZER: _mock_dialogue_summary,
    FUSION_SUMMARIZER: _mock_fusion_summary,
    FACT_EXTRACTOR: _mock_fact_extractor,
    FACT_JUDGE: _mock_fact_judge,
    VISION_CAPTIONER: _mock_vision_captioner,
}


def default_mock_transport(role: str) -> MockTransport:
    return MockTransport(_DEFAULT_MOCKS[role])


def fixture_transport(fixture: dict) -> MockTransport:
    """Mock for fact extraction/judging driven by a fixture table.

    Fixture shape: {"extractions": {sentence -> [facts] | "MALFORMED"},
    "verdicts": {fact -> true|false}}. Sentences and facts are matched
    after whitespace normalization. Any other shape is a ConfigError.
    """
    extractions = fixture.get("extractions", {})
    verdicts = fixture.get("verdicts", {})
    if not (isinstance(extractions, dict) and isinstance(verdicts, dict)):
        raise ConfigError("mock_fixture 'extractions' and 'verdicts' must be objects")
    for value in extractions.values():
        if value != MALFORMED_SIGNAL and not (
            isinstance(value, list) and all(isinstance(fact, str) for fact in value)
        ):
            raise ConfigError(
                f"mock_fixture extractions must be lists of strings or {MALFORMED_SIGNAL!r},"
                f" got {value!r}"
            )
    if not all(isinstance(verdict, bool) for verdict in verdicts.values()):
        raise ConfigError("mock_fixture verdicts must be true or false")
    extractions = {" ".join(k.split()): v for k, v in extractions.items()}
    verdicts = {normalize_fact(k): v for k, v in verdicts.items()}

    def handler(request: BackendRequest) -> str:
        if request.role == FACT_JUDGE:
            return "True" if verdicts.get(normalize_fact(request.variables["fact"])) else "False"
        sentence = " ".join(request.variables["sentence"].split())
        if sentence not in extractions:
            raise BackendUnavailable(f"fixture has no extraction for {sentence!r}")
        value = extractions[sentence]
        return value if value == MALFORMED_SIGNAL else "\n".join(value)

    return MockTransport(handler)


# ---------------------------------------------------------------------------
# Scene-level operations
# ---------------------------------------------------------------------------

def format_scene(lines: Iterable[tuple[str, str]]) -> str:
    """Render (speaker, text) pairs as ``Speaker: text`` lines."""
    return "\n".join(f"{speaker}: {text}" for speaker, text in lines)


def summarize_scene(lines: Sequence[tuple[str, str]], backends: Backends) -> str:
    """One dialogue-summarizer request for a whole scene, never chunked."""
    if not lines:
        raise EmptyCompletion("cannot summarize an empty scene")
    summary = backends.complete(DIALOGUE_SUMMARIZER, scene=format_scene(lines)).strip()
    if not summary:
        raise EmptyCompletion("dialogue summarizer returned a blank completion")
    return summary


def caption_scene(
    inputs: Sequence[str], backends: Backends | None = None, precomputed: bool = False
) -> list[str]:
    """Caption sentences for one scene.

    Precomputed caption strings pass through verbatim; otherwise each
    input is an image reference sent as its own captioner request.
    """
    if precomputed:
        return list(inputs)
    if backends is None:
        raise ConfigError("image-reference captioning requires a vision backend")
    return [backends.complete(VISION_CAPTIONER, image=ref).strip() for ref in inputs]


# ---------------------------------------------------------------------------
# Config-driven construction
# ---------------------------------------------------------------------------

ROLE_KEYS = (
    "endpoint", "auth_env", "model_name", "prompt_template",
    "rate_limit", "max_output_tokens", "temperature",
)


def config_number(config: dict, key: str, default, kind: type):
    """``kind(config[key])``, or ``default`` when absent.

    The value must be a JSON number, and a JSON integer when ``kind`` is
    int; anything else is a ConfigError.
    """
    value = config.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        wanted = "an integer" if kind is int else "a number"
        raise ConfigError(f"config key {key!r} must be {wanted}, got {value!r}")
    return kind(value)


def config_path(config: dict, key: str, base: Path) -> Path | None:
    """``base / config[key]``, or None when absent or empty; a non-string is a ConfigError."""
    value = config.get(key)
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"config key {key!r} must be a path string, got {value!r}")
    return base / value if value else None


def build_backends(
    config: dict | None = None,
    mock: bool = False,
    base_dir: str | Path | None = None,
) -> Backends:
    """Assemble role runtimes from a config tree.

    Per-role keys: ``ROLE_KEYS``; any other is a ConfigError. Top-level
    keys: cache_dir, mock_fixture. ``mock=True`` (or a role without an
    endpoint) selects the deterministic mock for that role; a
    mock_fixture file overrides the extractor and judge mocks.
    """
    config = config or {}
    base = Path(base_dir) if base_dir else Path.cwd()
    role_configs = config.get("backends", {})
    if not isinstance(role_configs, dict):
        raise ConfigError("config key 'backends' must be an object")
    unknown = set(role_configs) - set(ROLES)
    if unknown:
        raise ConfigError(f"unknown backend roles in config: {sorted(unknown)}")

    cache_root = config_path(config, "cache_dir", base)

    fixture = None
    fixture_path = config_path(config, "mock_fixture", base)
    if fixture_path:
        fixture = read_json(fixture_path, ConfigError, "mock_fixture")
        if not isinstance(fixture, dict):
            raise ConfigError(f"mock_fixture {fixture_path} must hold a JSON object")

    backends = Backends()
    for role in ROLES:
        role_cfg = role_configs.get(role, {})
        if not isinstance(role_cfg, dict):
            raise ConfigError(f"backend config for {role!r} must be an object")
        unknown = set(role_cfg) - set(ROLE_KEYS)
        if unknown:
            raise ConfigError(f"unknown backend config keys for {role!r}: {sorted(unknown)}")
        endpoint = role_cfg.get("endpoint")
        use_mock = mock or not endpoint
        if use_mock:
            if fixture is not None and role in (FACT_EXTRACTOR, FACT_JUDGE):
                transport = fixture_transport(fixture)
            else:
                transport = default_mock_transport(role)
        else:
            transport = HttpTransport(endpoint, role_cfg.get("auth_env"))
        template_path = config_path(role_cfg, "prompt_template", base)
        if template_path:
            template = read_text(template_path, ConfigError, "prompt_template")
        else:
            template = default_template(role)
        rate_limit = config_number(role_cfg, "rate_limit", 0.0, float)
        if rate_limit < 0:
            raise ConfigError(f"rate_limit for {role!r} must be >= 0, got {rate_limit}")
        client = BackendClient(
            transport,
            cache_dir=cache_root / role if cache_root else None,
            rate_limit=rate_limit,
        )
        backends.roles[role] = RoleRuntime(
            client=client,
            template=template,
            model_name=role_cfg.get("model_name", "default"),
            max_output_tokens=config_number(role_cfg, "max_output_tokens", 512, int),
            temperature=config_number(role_cfg, "temperature", 0.0, float),
        )
    return backends
