"""Backend clients: caching, retries, transports, and the mock suite."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from conftest import build_mock_backends
from scenefuse.backends import (
    DIALOGUE_SUMMARIZER,
    FACT_EXTRACTOR,
    FACT_JUDGE,
    FUSION_SUMMARIZER,
    ROLES,
    VISION_CAPTIONER,
    BackendClient,
    BackendRequest,
    Backends,
    HttpTransport,
    MockTransport,
    RateLimiter,
    build_backends,
    cache_key,
    caption_scene,
    default_mock_transport,
    fixture_transport,
    format_scene,
    render_template,
    summarize_scene,
)
from scenefuse.errors import (
    AuthError,
    BackendUnavailable,
    ConfigError,
    EmptyCompletion,
    QuotaExceeded,
)


def request(prompt="hello", **overrides) -> BackendRequest:
    fields = {"role": DIALOGUE_SUMMARIZER, "prompt": prompt}
    fields.update(overrides)
    return BackendRequest(**fields)


class FlakyTransport:
    """Fails a fixed number of times, then echoes the prompt."""

    def __init__(self, failures: int):
        self.failures = failures
        self.attempts = 0

    def send(self, req: BackendRequest) -> str:
        self.attempts += 1
        if self.attempts <= self.failures:
            raise BackendUnavailable("flaky")
        return f"echo: {req.prompt}"


def test_render_template_is_literal():
    out = render_template("Scene:\n{scene}\n\nSummary:", scene="A: hi")
    assert out == "Scene:\nA: hi\n\nSummary:"
    # unknown markers survive, and values are not re-scanned
    assert render_template("{a} and {b}", a="{b}") == "{b} and {b}"


def test_cache_key_separates_every_field():
    base = request()
    assert cache_key(base) == cache_key(request())
    variants = [
        request(prompt="other"),
        request(role=FACT_JUDGE),
        request(model_name="large"),
        request(max_output_tokens=64),
        request(temperature=0.7),
    ]
    keys = {cache_key(v) for v in variants}
    keys.add(cache_key(base))
    assert len(keys) == len(variants) + 1


PINNED_KEY = "f1b1abf1c1c63870ae30d75bf4b5b755244e6254ac6504cfdd2a19521780d0cb"


def test_cache_key_is_pinned():
    # a changed digest would orphan every existing cache entry
    assert cache_key(request()) == PINNED_KEY


def test_request_variables_are_a_read_only_copy_outside_the_cache_key():
    variables = {"scene": "A: hi"}
    req = request(variables=variables)
    assert cache_key(req) == PINNED_KEY
    variables["scene"] = "changed"
    assert req.variables == {"scene": "A: hi"}
    with pytest.raises(TypeError):
        req.variables["scene"] = "changed"


def test_mock_transport_passes_the_whole_request(tmp_path):
    seen = []
    backends = build_mock_backends(tmp_path)
    backends.roles[FACT_JUDGE].client.transport = MockTransport(
        lambda req: seen.append(req) or "True"
    )
    assert backends.complete(FACT_JUDGE, reference="Ref text.", fact="A fact") == "True"
    (req,) = seen
    assert req.role == FACT_JUDGE
    assert dict(req.variables) == {"reference": "Ref text.", "fact": "A fact"}
    assert "Ref text." in req.prompt and "A fact" in req.prompt


def test_client_caches_by_request_digest(tmp_path):
    transport = FlakyTransport(failures=0)
    client = BackendClient(transport, cache_dir=tmp_path, backoff=0.0)
    first = client.complete(request("alpha"))
    again = client.complete(request("alpha"))
    other = client.complete(request("beta"))
    assert first == again == "echo: alpha"
    assert other == "echo: beta"
    assert client.calls == 2  # one upstream call per distinct request
    assert transport.attempts == 2


def test_cache_outlives_the_client(tmp_path):
    BackendClient(FlakyTransport(0), cache_dir=tmp_path).complete(request("alpha"))
    fresh = BackendClient(FlakyTransport(0), cache_dir=tmp_path)
    assert fresh.complete(request("alpha")) == "echo: alpha"
    assert fresh.calls == 0


@pytest.mark.parametrize(
    "damage",
    [
        lambda text: text[: len(text) // 2],  # truncated mid-write
        lambda text: "\udcff",  # not valid UTF-8 once written
        lambda text: json.dumps({"digest": "x"}),  # no completion
        lambda text: json.dumps({**json.loads(text), "completion": 7}),
        lambda text: json.dumps({**json.loads(text), "digest": "0" * 64}),
        lambda text: "[]",
    ],
    ids=["truncated", "undecodable", "no-completion", "non-string", "digest-mismatch", "not-a-record"],
)
def test_corrupt_cache_entry_is_a_miss_and_gets_repaired(tmp_path, damage):
    BackendClient(FlakyTransport(0), cache_dir=tmp_path).complete(request("alpha"))
    (entry,) = tmp_path.glob("*.json")
    good = entry.read_text(encoding="utf-8")
    entry.write_bytes(damage(good).encode("utf-8", "surrogateescape"))
    transport = FlakyTransport(0)
    client = BackendClient(transport, cache_dir=tmp_path)
    assert client.complete(request("alpha")) == "echo: alpha"
    assert transport.attempts == 1  # the request was sent again
    assert client.calls == 1
    assert entry.read_text(encoding="utf-8") == good  # and the entry rewritten
    assert sorted(p.name for p in tmp_path.iterdir()) == [entry.name]  # no temp left
    # the repaired entry serves the next client from cache
    fresh = BackendClient(FlakyTransport(0), cache_dir=tmp_path)
    assert fresh.complete(request("alpha")) == "echo: alpha"
    assert fresh.calls == 0


def test_refresh_bypasses_the_cached_completion(tmp_path):
    replies = iter(["stale", "fresh", "unused"])
    client = BackendClient(
        MockTransport(lambda req: next(replies)), cache_dir=tmp_path, backoff=0.0
    )
    assert client.complete(request()) == "stale"
    assert client.complete(request()) == "stale"
    assert client.complete(request(), refresh=True) == "fresh"
    # the refreshed completion replaced the cache entry
    assert client.complete(request()) == "fresh"
    assert client.calls == 2


def test_client_retries_transient_failures(tmp_path):
    transport = FlakyTransport(failures=2)
    client = BackendClient(transport, cache_dir=tmp_path, max_attempts=3, backoff=0.0)
    assert client.complete(request()) == "echo: hello"
    assert transport.attempts == 3
    assert client.calls == 1


def test_client_gives_up_after_max_attempts():
    transport = FlakyTransport(failures=99)
    client = BackendClient(transport, max_attempts=3, backoff=0.0)
    with pytest.raises(BackendUnavailable, match=DIALOGUE_SUMMARIZER):
        client.complete(request())
    assert transport.attempts == 3


@pytest.mark.parametrize("error", [AuthError("denied"), QuotaExceeded("quota")])
def test_client_never_retries_fatal_errors(error):
    class Fatal:
        attempts = 0

        def send(self, req):
            self.attempts += 1
            raise error

    transport = Fatal()
    client = BackendClient(transport, max_attempts=3, backoff=0.0)
    with pytest.raises(type(error)):
        client.complete(request())
    assert transport.attempts == 1


def test_rate_limiter_spaces_out_acquisitions():
    limiter = RateLimiter(50)  # 20ms interval
    started = time.monotonic()
    for _ in range(3):
        limiter.acquire()
    elapsed = time.monotonic() - started
    assert elapsed >= 0.039  # at least two full intervals


class _CannedHandler(BaseHTTPRequestHandler):
    responses: list[tuple[int, str]] = []
    auth_headers: list[str | None] = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        type(self).auth_headers.append(self.headers.get("Authorization"))
        status, body = type(self).responses.pop(0)
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_endpoint():
    server = HTTPServer(("127.0.0.1", 0), _CannedHandler)
    _CannedHandler.responses = []
    _CannedHandler.auth_headers = []
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat"
    server.shutdown()
    thread.join(timeout=5)
    server.server_close()


def good_body(content: str) -> str:
    return json.dumps({"choices": [{"message": {"content": content}}]})


def test_http_transport_round_trip(http_endpoint, monkeypatch):
    monkeypatch.setenv("TEST_API_KEY", "sekrit")
    _CannedHandler.responses.append((200, good_body("served")))
    transport = HttpTransport(http_endpoint, auth_env="TEST_API_KEY")
    assert transport.send(request()) == "served"
    assert _CannedHandler.auth_headers == ["Bearer sekrit"]


def test_http_transport_missing_credential_fails_before_sending(http_endpoint, monkeypatch):
    monkeypatch.delenv("TEST_API_KEY", raising=False)
    transport = HttpTransport(http_endpoint, auth_env="TEST_API_KEY")
    with pytest.raises(AuthError):
        transport.send(request())
    assert _CannedHandler.auth_headers == []


@pytest.mark.parametrize(
    ("status", "error"),
    [(401, AuthError), (403, AuthError), (429, QuotaExceeded), (500, BackendUnavailable)],
)
def test_http_transport_maps_status_codes(http_endpoint, status, error):
    _CannedHandler.responses.append((status, "{}"))
    transport = HttpTransport(http_endpoint)
    with pytest.raises(error):
        transport.send(request())


def test_http_transport_rejects_malformed_bodies(http_endpoint):
    _CannedHandler.responses.append((200, '{"unexpected": true}'))
    transport = HttpTransport(http_endpoint)
    with pytest.raises(BackendUnavailable, match="malformed"):
        transport.send(request())


def test_http_transport_connection_failure():
    transport = HttpTransport("http://127.0.0.1:9/unreachable", timeout=0.5)
    with pytest.raises(BackendUnavailable):
        transport.send(request())


def test_default_mock_dialogue_summarizer(tmp_path):
    backends = build_mock_backends(tmp_path)
    scene = format_scene([("Alice", "We should go now."), ("Bob", "Agreed.")])
    out = backends.complete(DIALOGUE_SUMMARIZER, scene=scene)
    assert out == "Alice and Bob talk. It begins with: We should go now."


def test_default_mock_fusion_summarizer(tmp_path):
    backends = build_mock_backends(tmp_path)
    notes = " ".join(f"w{i}" for i in range(100))
    out = backends.complete(FUSION_SUMMARIZER, notes=notes)
    assert out.startswith("Episode recap: w0 w1")
    assert len(out.split()) == 62  # two header tokens plus sixty note words


def test_default_mock_extractor_and_judge(tmp_path):
    backends = build_mock_backends(tmp_path)
    assert (
        backends.complete(FACT_EXTRACTOR, sentence="Nick sails away.")
        == "Nick sails away."
    )
    yes = backends.complete(
        FACT_JUDGE, reference="Nick sails away today.", fact="Nick sails away"
    )
    no = backends.complete(FACT_JUDGE, reference="Unrelated.", fact="Nick sails away")
    assert (yes, no) == ("True", "False")


def test_default_mock_vision_captioner(tmp_path):
    backends = build_mock_backends(tmp_path)
    out = backends.complete(VISION_CAPTIONER, image="frame_001.jpg")
    assert out == "a man and a woman are standing near frame_001.jpg"


def test_fixture_transport_normalizes_lookups(tmp_path):
    backends = build_mock_backends(tmp_path)
    transport = fixture_transport(
        {
            "extractions": {"Nick  sails  away.": ["Nick sails away."]},
            "verdicts": {"Nick Sails Away!": True},
        }
    )
    backends.roles[FACT_EXTRACTOR].client.transport = transport
    backends.roles[FACT_JUDGE].client.transport = transport
    # whitespace differences in the sentence key collapse
    assert (
        backends.complete(FACT_EXTRACTOR, sentence="Nick sails away.")
        == "Nick sails away."
    )
    assert backends.complete(FACT_JUDGE, reference="x", fact="nick sails away") == "True"
    assert backends.complete(FACT_JUDGE, reference="x", fact="unknown fact") == "False"
    with pytest.raises(BackendUnavailable):
        backends.complete(FACT_EXTRACTOR, sentence="Never recorded.")


# Other wording, markers in another order, and a colon in the first line.
CUSTOM_TEMPLATES = {
    DIALOGUE_SUMMARIZER: "Recap: the dialogue follows.\n{scene}\nWrite the recap now.",
    FUSION_SUMMARIZER: "Notes: {notes}\n\nCombine them.",
    FACT_EXTRACTOR: "Task: list the facts of\n{sentence}\nDone:",
    FACT_JUDGE: "Claim: {fact}\nSource: {reference}\nVerdict:",
    VISION_CAPTIONER: "Frame: {image}\nDescribe: what is shown.",
}

MOCK_CASES = [
    (DIALOGUE_SUMMARIZER, {"scene": format_scene([("Alice", "We go now."), ("Bob", "Agreed.")])}),
    (FUSION_SUMMARIZER, {"notes": "Alice leaves.\n\nBob stays behind."}),
    (FACT_EXTRACTOR, {"sentence": " Nick sails away. "}),
    (FACT_JUDGE, {"reference": "Nick sails away today.", "fact": "Nick sails away"}),
    (FACT_JUDGE, {"reference": "Unrelated.", "fact": "Nick sails away"}),
    (VISION_CAPTIONER, {"image": "frame_001.jpg"}),
]


def custom_template_config(tmp_path, roles, **extra) -> dict:
    for role in roles:
        (tmp_path / f"{role}.txt").write_text(CUSTOM_TEMPLATES[role], encoding="utf-8")
    backends = {role: {"prompt_template": f"{role}.txt"} for role in roles}
    return {"backends": backends, **extra}


@pytest.mark.parametrize(
    ("role", "variables"),
    MOCK_CASES,
    ids=["scene", "notes", "sentence", "judge-true", "judge-false", "image"],
)
def test_default_mocks_answer_alike_under_a_custom_template(tmp_path, role, variables):
    shipped = build_backends({}, mock=True, base_dir=tmp_path)
    custom = build_backends(custom_template_config(tmp_path, [role]), mock=True, base_dir=tmp_path)
    assert custom.roles[role].template == CUSTOM_TEMPLATES[role]
    assert custom.complete(role, **variables) == shipped.complete(role, **variables)


def test_fixture_transport_answers_alike_under_custom_templates(tmp_path):
    fixture = {
        "extractions": {"Nick sails away.": ["Nick owns a boat."], "Garbled.": "MALFORMED"},
        "verdicts": {"Nick owns a boat.": True},
    }
    (tmp_path / "fixture.json").write_text(json.dumps(fixture), encoding="utf-8")
    shipped = build_backends({"mock_fixture": "fixture.json"}, mock=True, base_dir=tmp_path)
    config = custom_template_config(
        tmp_path, [FACT_EXTRACTOR, FACT_JUDGE], mock_fixture="fixture.json"
    )
    custom = build_backends(config, mock=True, base_dir=tmp_path)
    cases = [
        (FACT_EXTRACTOR, {"sentence": "Nick sails away."}, "Nick owns a boat."),
        (FACT_EXTRACTOR, {"sentence": "Garbled."}, "MALFORMED"),
        (FACT_JUDGE, {"reference": "x", "fact": "nick owns a boat"}, "True"),
        (FACT_JUDGE, {"reference": "Nick owns a boat.", "fact": "Nick sails"}, "False"),
    ]
    for role, variables, expected in cases:
        assert shipped.complete(role, **variables) == expected
        assert custom.complete(role, **variables) == expected


def test_format_scene():
    assert format_scene([("Alice", "hi"), ("Bob", "yo")]) == "Alice: hi\nBob: yo"


def test_summarize_scene_sends_one_request_for_the_whole_scene(tmp_path):
    backends = build_mock_backends(tmp_path)
    lines = [("Alice" if i % 2 else "Bob", f"utterance {i}") for i in range(40)]
    summary = summarize_scene(lines, backends)
    assert summary.startswith("Bob and Alice talk.")
    assert backends.roles[DIALOGUE_SUMMARIZER].client.calls == 1


def test_summarize_scene_rejects_empties(tmp_path):
    backends = build_mock_backends(tmp_path)
    with pytest.raises(EmptyCompletion):
        summarize_scene([], backends)
    backends.roles[DIALOGUE_SUMMARIZER].client.transport = MockTransport(lambda req: "  ")
    with pytest.raises(EmptyCompletion):
        summarize_scene([("Alice", "hi")], backends)


def test_caption_scene_precomputed_passthrough(tmp_path):
    backends = build_mock_backends(tmp_path)
    sentences = ["a man waves", "a woman nods"]
    assert caption_scene(sentences, backends, precomputed=True) == sentences
    assert backends.upstream_calls == 0
    # and no backend is even needed
    assert caption_scene(sentences, None, precomputed=True) == sentences


def test_caption_scene_sends_one_request_per_image(tmp_path):
    backends = build_mock_backends(tmp_path)
    out = caption_scene(["f1.jpg", "f2.jpg", "f3.jpg"], backends)
    assert len(out) == 3
    assert out[0] == "a man and a woman are standing near f1.jpg"
    assert backends.roles[VISION_CAPTIONER].client.calls == 3


def test_caption_scene_requires_a_vision_backend():
    with pytest.raises(ConfigError):
        caption_scene(["f1.jpg"], None)


def test_build_backends_defaults_to_mocks(tmp_path):
    backends = build_backends({}, base_dir=tmp_path)
    assert set(backends.roles) == set(ROLES)
    out = backends.complete(FACT_EXTRACTOR, sentence="Nick sails away.")
    assert out == "Nick sails away."


def test_build_backends_validates_shape(tmp_path):
    with pytest.raises(ConfigError, match="must be an object"):
        build_backends({"backends": ["not", "a", "dict"]}, base_dir=tmp_path)
    with pytest.raises(ConfigError, match="unknown backend roles"):
        build_backends({"backends": {"oracle": {}}}, base_dir=tmp_path)
    with pytest.raises(ConfigError, match="must be an object"):
        build_backends({"backends": {FACT_JUDGE: "endpoint"}}, base_dir=tmp_path)
    with pytest.raises(ConfigError, match="mock_fixture"):
        build_backends({"mock_fixture": "missing.json"}, base_dir=tmp_path)


def test_build_backends_role_settings_and_cache_layout(tmp_path):
    template = tmp_path / "judge.txt"
    template.write_text("Custom: {fact}", encoding="utf-8")
    config = {
        "cache_dir": "cache",
        "backends": {
            FACT_JUDGE: {
                "prompt_template": "judge.txt",
                "model_name": "tiny",
                "max_output_tokens": 16,
                "temperature": 0.25,
            }
        },
    }
    backends = build_backends(config, base_dir=tmp_path)
    runtime = backends.roles[FACT_JUDGE]
    assert runtime.template == "Custom: {fact}"
    assert runtime.model_name == "tiny"
    assert runtime.max_output_tokens == 16
    assert runtime.temperature == 0.25
    assert runtime.client.cache_dir == tmp_path / "cache" / FACT_JUDGE
    assert runtime.client.cache_dir.is_dir()


def test_build_backends_mock_fixture_overrides_extractor_and_judge(tmp_path):
    fixture = {
        "extractions": {"Nick sails away.": ["Nick owns a boat."]},
        "verdicts": {"Nick owns a boat.": True},
    }
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(fixture), encoding="utf-8")
    backends = build_backends({"mock_fixture": "fixture.json"}, mock=True, base_dir=tmp_path)
    out = backends.complete(FACT_EXTRACTOR, sentence="Nick sails away.")
    assert out == "Nick owns a boat."
    # roles outside the fixture keep the standard mocks
    scene_out = backends.complete(DIALOGUE_SUMMARIZER, scene="Alice: hi")
    assert scene_out.startswith("Alice talk")


def test_build_backends_endpoint_uses_http_unless_mocked(tmp_path):
    config = {"backends": {FACT_JUDGE: {"endpoint": "http://127.0.0.1:9/x"}}}
    live = build_backends(config, base_dir=tmp_path)
    assert isinstance(live.roles[FACT_JUDGE].client.transport, HttpTransport)
    mocked = build_backends(config, mock=True, base_dir=tmp_path)
    assert isinstance(mocked.roles[FACT_JUDGE].client.transport, MockTransport)
