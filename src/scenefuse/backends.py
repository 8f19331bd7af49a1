"""Client layer for the remote text-generation roles.

Five roles share one mechanism: dialogue_summarizer, fusion_summarizer,
fact_extractor, fact_judge, vision_captioner. Each role has a prompt
template (externalized file, shipped default), a transport (HTTP
chat-completion wire shape, or a deterministic mock), a persistent
response cache keyed by request digest (one append-only log per role),
retry with exponential backoff for transient failures, and an optional
rate limit. Clients are safe to share across threads.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
import threading
import time
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence
from urllib.parse import SplitResult, urlsplit

from .errors import (
    AuthError,
    BackendUnavailable,
    ConfigError,
    EmptyCompletion,
    QuotaExceeded,
    make_dir,
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
CACHE_LOG = "completions.jsonl"
MAX_RATE_INTERVAL_S = 3600.0  # a positive rate_limit may space requests at most this far


class BackendRequest:
    """One completion; ``variables`` (a read-only copy) were rendered into ``prompt``."""

    __slots__ = ("role", "prompt", "model_name", "max_output_tokens", "temperature", "variables")

    def __init__(self, role: str, prompt: str, model_name: str = "default",
                 max_output_tokens: int = 512, temperature: float = 0.0,
                 variables: Mapping[str, str] = MappingProxyType({})):
        self.role, self.prompt, self.model_name = role, prompt, model_name
        self.max_output_tokens, self.temperature = max_output_tokens, temperature
        self.variables = MappingProxyType(dict(variables))


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

    def __init__(self, respond: Callable[[BackendRequest], str], source: dict | None = None):
        self.respond, self.source = respond, source or {}

    def send(self, request: BackendRequest) -> str:
        return self.respond(request)


def parse_endpoint(endpoint: str) -> SplitResult:
    """``urlsplit(endpoint)``; anything but an http(s) URL with a host is a ConfigError."""
    try:
        url = urlsplit(endpoint)
        url.port  # a port that is not a number raises here
    except ValueError as exc:
        raise ConfigError(f"endpoint {endpoint!r} is not a URL: {exc}") from None
    if url.scheme not in ("http", "https") or not url.hostname:
        raise ConfigError(f"endpoint {endpoint!r} is not an http or https URL with a host")
    return url


class HttpTransport:
    """JSON-over-HTTP chat-completion wire shape, sent through ``http.client``.

    The auth secret is read from the environment variable named by
    ``auth_env`` at request time and never appears in config files.
    Connections are kept alive: each request takes an idle one or opens
    one, and puts it back once the response body is read. A kept
    connection the server has dropped costs one resend on a fresh one.
    ``close`` closes the idle connections.
    """

    def __init__(self, endpoint: str, auth_env: str | None = None, timeout: float = 60.0):
        import http.client  # only a run with an endpoint pays for the import

        self.endpoint = endpoint
        self.source = {"endpoint": endpoint}
        self.auth_env = auth_env
        self.timeout = timeout
        url = parse_endpoint(endpoint)
        self._connection = (
            http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
        )
        self._address = (url.hostname, url.port)
        self._path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._errors = (OSError, http.client.HTTPException)
        self._idle: list = []
        self._lock = threading.Lock()

    def send(self, request: BackendRequest) -> str:
        headers = {"Content-Type": "application/json"}
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
            status, body = self._post(json.dumps(payload).encode("utf-8"), headers)
        except self._errors as exc:
            raise BackendUnavailable(f"{self.endpoint}: {exc}") from exc
        if status in (401, 403):
            raise AuthError(f"{self.endpoint}: HTTP {status}")
        if status == 429:
            raise QuotaExceeded(f"{self.endpoint}: HTTP 429")
        if status != 200:
            raise BackendUnavailable(f"{self.endpoint}: HTTP {status}")
        try:
            content = json.loads(body)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendUnavailable(f"{self.endpoint}: malformed response body") from exc
        if not isinstance(content, str):
            raise BackendUnavailable(f"{self.endpoint}: malformed response body")
        return content

    def _post(self, body: bytes, headers: dict) -> tuple[int, bytes]:
        with self._lock:
            kept = self._idle.pop() if self._idle else None
        if kept is not None:
            try:
                return self._exchange(kept, body, headers)
            except TimeoutError:
                raise  # a slow server, not a dropped connection
            except self._errors:
                pass  # the server closed the kept connection; resend on a fresh one
        return self._exchange(
            self._connection(*self._address, timeout=self.timeout), body, headers
        )

    def _exchange(self, connection, body: bytes, headers: dict) -> tuple[int, bytes]:
        """One POST on ``connection``, which is kept if the server keeps it, else closed."""
        keep = False
        try:
            connection.request("POST", self._path, body, headers)
            response = connection.getresponse()
            data = response.read()
            keep = not response.will_close
        finally:
            if keep:
                with self._lock:
                    self._idle.append(connection)
            else:
                connection.close()
        return response.status, data

    def close(self) -> None:
        """Close the idle connections; a later send opens a new one."""
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()


class BackendClient:
    """One transport plus cache, retry, and rate limiting.

    ``calls`` counts completed upstream requests; cache hits leave it
    untouched. The cache is one append-only log, ``CACHE_LOG`` under
    ``cache_dir``: each fetched completion is one JSON record on its own
    line, appended by a single ``os.write`` to an ``O_APPEND`` descriptor,
    so concurrent writers keep each record whole. A record starts with
    its newline, so one torn by a crash costs only that record. The
    first lookup reads the whole log into a digest -> completion dict;
    a line that does not decode or lacks a string ``digest`` and
    ``completion`` is skipped, and a later record for a digest wins. A
    record holds the fields of its client's ``source``, and a client reads
    only the records of its own source. A log that cannot be read or
    appended to is a ConfigError. The cache directory is created on the
    first write, so a client that never completes a request leaves none
    behind.
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
        self._log = self.cache_dir / CACHE_LOG if cache_dir else None
        self.limiter = RateLimiter(rate_limit) if rate_limit else None
        self.max_attempts = max_attempts
        self.backoff = backoff
        self.calls = 0
        self._lock = threading.Lock()
        self._completions: dict[str, str] | None = None
        self._cache_made = False

    @property
    def source(self) -> dict[str, str]:
        """The transport's ``source``; ``{}`` for a default mock and a transport without one."""
        return getattr(self.transport, "source", {})

    def _cached(self) -> dict[str, str]:
        """The log's digest -> completion dict, read on the first call."""
        if self._completions is None:
            with self._lock:
                if self._completions is None:
                    self._completions = self._load()
        return self._completions

    def _load(self) -> dict[str, str]:
        try:
            data = self._log.read_bytes()
        except FileNotFoundError:
            return {}
        except OSError as exc:
            raise ConfigError(
                f"cannot read completion log {self._log}: {exc.strerror or exc}"
            ) from exc
        completions, source = {}, self.source
        for line in data.split(b"\n"):
            try:
                record = json.loads(line)
            except ValueError:  # blank, torn, or not UTF-8
                continue
            if isinstance(record, dict) and all(
                record.get(k) == source.get(k) for k in ("endpoint", "mock_fixture")
            ):
                digest, completion = record.get("digest"), record.get("completion")
                if isinstance(digest, str) and isinstance(completion, str):
                    completions[digest] = completion
        return completions

    def _cache_write(self, digest: str, request: BackendRequest, completion: str) -> None:
        if not self._log:
            return
        if not self._cache_made:
            make_dir(self.cache_dir, "cache_dir")
            self._cache_made = True
        record = {
            "digest": digest,
            "role": request.role,
            "model_name": request.model_name,
            "prompt": request.prompt,
            "completion": completion,
            **self.source,
        }
        line = ("\n" + json.dumps(record, ensure_ascii=False)).encode("utf-8")
        try:
            fd = os.open(self._log, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
            try:
                os.write(fd, line)
            finally:
                os.close(fd)
        except OSError as exc:
            raise ConfigError(
                f"cannot append to completion log {self._log}: {exc.strerror or exc}"
            ) from exc
        self._cached()[digest] = completion

    def complete(self, request: BackendRequest, refresh: bool = False) -> str:
        """Cached completion; ``refresh`` forces one fresh upstream call."""
        digest = cache_key(request)
        completion = None
        if self._log and not refresh:
            completion = self._cached().get(digest)
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


def fan_out(fn: Callable, items: Sequence, max_workers: int) -> list:
    """``[fn(item) for item in items]`` with at most ``max_workers`` calls in flight.

    The calling thread and ``min(max_workers, len(items)) - 1`` helper
    threads each take the next index from one shared counter and store
    the result by index, so results come back in item order, and no
    thread waits on another's call. Once a call raises, or anything
    escapes the caller's loop, no thread takes a new item: the calls
    already running finish, the helpers are joined, and the exception
    of the lowest failing index is raised. Every item before that index
    has run to completion.
    """
    results: list = [None] * len(items)
    errors: dict[int, BaseException] = {}
    lock = threading.Lock()
    taken, stop = 0, False  # the next index to take; whether no thread may take one

    def pull() -> None:
        nonlocal taken, stop
        while True:
            with lock:
                if stop or taken == len(items):
                    return
                i, taken = taken, taken + 1
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                with lock:
                    errors[i], stop = exc, True
                return

    helpers = []  # the started ones
    try:
        for _ in range(min(max_workers, len(items)) - 1):
            helper = threading.Thread(target=pull, daemon=True)
            helper.start()
            helpers.append(helper)
        pull()
    finally:
        with lock:
            stop = True
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return results


def render_template(template: str, **variables: str) -> str:
    """Fill ``{name}`` markers literally; untouched text passes through."""
    out = template
    for key, value in variables.items():
        out = out.replace("{" + key + "}", value)
    return out


class RoleRuntime:
    """A role's client and what its requests carry; a caller may reassign any field."""

    __slots__ = ("client", "template", "model_name", "max_output_tokens", "temperature")

    def __init__(self, client: BackendClient, template: str, model_name: str = "default",
                 max_output_tokens: int = 512, temperature: float = 0.0):
        self.client, self.template, self.model_name = client, template, model_name
        self.max_output_tokens, self.temperature = max_output_tokens, temperature


def role_identity(rt: RoleRuntime) -> str:
    """Source lines (none for a default mock), then all else a role's completions depend on."""
    source = "".join(f"{key} {value!r}\n" for key, value in rt.client.source.items())
    return f"{source}{rt.model_name!r} {rt.max_output_tokens} {rt.temperature!r}\n{rt.template}"


class Backends:
    """Role -> runtime map used by every pipeline stage."""

    __slots__ = ("roles",)

    def __init__(self, roles: dict[str, RoleRuntime] | None = None):
        self.roles = {} if roles is None else roles

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

    def close(self) -> None:
        """Close the kept connections of every HTTP role."""
        for rt in self.roles.values():
            if isinstance(rt.client.transport, HttpTransport):
                rt.client.transport.close()


def default_template(role: str) -> str:
    return (Path(__file__).parent / "data" / "prompts" / f"{role}.txt").read_text(encoding="utf-8")


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
    The transport's source is the sha256 of the fixture's sorted JSON.
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
    content = json.dumps(fixture, sort_keys=True).encode("utf-8")
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

    return MockTransport(handler, {"mock_fixture": hashlib.sha256(content).hexdigest()})


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

class Setting(NamedTuple):
    """One config key: its JSON type, its value when absent, and its least value, if any."""

    kind: type  # bool, int, float, str, dict, or Path: a file named relative to the config
    default: Any = None
    least: float | None = None


_JSON_TYPES = {  # each kind: the types of the JSON values it reads, and its name in errors
    bool: (bool, "true or false"), int: (int, "an integer"), float: ((int, float), "a number"),
    str: (str, "a string"), Path: (str, "a string"), dict: (dict, "an object"),
}


def read_settings(
    tree: dict, table: Mapping[str, Setting], base: Path, what: str = "config key"
) -> dict:
    """Each key of table, read from the JSON object tree: key -> value.

    A key that table lacks, a value of the wrong JSON type and one below
    its least are ConfigErrors; a number lies in a float's range, so NaN
    and Infinity are refused. Absent, or null for a str or Path, reads as
    the default, and so does an empty Path. what names a key in errors.
    """
    unknown = set(tree) - set(table)
    if unknown:
        raise ConfigError(f"unknown {what}s: {sorted(unknown)}")
    values = {}
    for key, setting in table.items():
        value = tree.get(key)
        if value is None and (key not in tree or setting.kind in (str, Path)):
            values[key] = setting.default
            continue
        types, wanted = _JSON_TYPES[setting.kind]
        if (
            isinstance(value, bool) != (setting.kind is bool)  # a bool is never a number
            or not isinstance(value, types)
            or setting.kind is float and not abs(value) <= sys.float_info.max  # NaN too
        ):
            raise ConfigError(f"{what} {key!r} must be {wanted}, got {value!r}")
        if setting.least is not None and value < setting.least:
            raise ConfigError(f"{what} {key!r} must be >= {setting.least}, got {value!r}")
        if setting.kind is Path:
            value = base / value if value else setting.default
        values[key] = float(value) if setting.kind is float else value
    return values


# the top-level config keys that build_backends reads
SETTINGS = {
    "backends": Setting(dict, {}),  # role -> that role's ROLE_SETTINGS
    "cache_dir": Setting(Path),
    "mock_fixture": Setting(Path),
}

ROLE_SETTINGS = {
    "endpoint": Setting(str),
    "auth_env": Setting(str),
    "model_name": Setting(str, "default"),
    "prompt_template": Setting(Path),
    "rate_limit": Setting(float, 0.0, least=0),
    "max_output_tokens": Setting(int, 512, least=1),
    "temperature": Setting(float, 0.0),
}


def build_backends(
    config: dict | None = None,
    mock: bool = False,
    base_dir: str | Path | None = None,
) -> Backends:
    """Assemble role runtimes from a config tree of SETTINGS.

    Each role's object under "backends" holds ROLE_SETTINGS. ``mock=True``
    (or a role without an endpoint) selects the deterministic mock for
    that role; a mock_fixture file overrides the extractor and judge mocks.
    """
    base = Path(base_dir) if base_dir else Path.cwd()
    settings = read_settings(config or {}, SETTINGS, base)
    role_configs = read_settings(
        settings["backends"], dict.fromkeys(ROLES, Setting(dict, {})), base, "backend role"
    )

    cache_root = settings["cache_dir"]
    if cache_root and cache_root.exists() and not cache_root.is_dir():
        raise ConfigError(f"cache_dir {cache_root} is not a directory")

    fixture = None
    fixture_path = settings["mock_fixture"]
    if fixture_path:
        fixture = read_json(fixture_path, ConfigError, "mock_fixture")
        if not isinstance(fixture, dict):
            raise ConfigError(f"mock_fixture {fixture_path} must hold a JSON object")

    backends = Backends()
    for role in ROLES:
        role_cfg = read_settings(role_configs[role], ROLE_SETTINGS, base, f"{role} config key")
        endpoint, rate = role_cfg["endpoint"], role_cfg["rate_limit"]
        if endpoint:
            parse_endpoint(endpoint)  # refused under --mock too
        if 0 < rate < 1 / MAX_RATE_INTERVAL_S:  # 1e-320 would sleep past time_t's range
            raise ConfigError(f"{role} config key 'rate_limit' must be 0 or at least one request"
                              f" per {MAX_RATE_INTERVAL_S:g} s, got {rate!r}")
        if mock or not endpoint:
            if fixture is not None and role in (FACT_EXTRACTOR, FACT_JUDGE):
                transport = fixture_transport(fixture)
            else:
                transport = default_mock_transport(role)
        else:
            transport = HttpTransport(endpoint, role_cfg["auth_env"])
        template_path = role_cfg["prompt_template"]
        if template_path:
            template = read_text(template_path, ConfigError, "prompt_template")
        else:
            template = default_template(role)
        client = BackendClient(
            transport,
            cache_dir=cache_root / role if cache_root else None,
            rate_limit=rate,
        )
        backends.roles[role] = RoleRuntime(
            client=client,
            template=template,
            model_name=role_cfg["model_name"],
            max_output_tokens=role_cfg["max_output_tokens"],
            temperature=role_cfg["temperature"],
        )
    return backends
