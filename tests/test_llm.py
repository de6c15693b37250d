import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from perioparse.corpus import AnnotationSource, Provenance
from perioparse.demo import demo_seed_templates
from perioparse.llm import ConfigurationError, GenerationError, generate_llm
from perioparse.synthesis import GenerationConfig, build_prompt, trailer_for_record


class MockEndpoint:
    """Minimal OpenAI-compatible chat endpoint capturing request bodies."""

    def __init__(self, fail_with=None, trailer_mode="echo"):
        self.bodies = []
        self.fail_with = fail_with
        self.trailer_mode = trailer_mode
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length))
                endpoint.bodies.append(body)
                if endpoint.fail_with is not None:
                    self.send_response(endpoint.fail_with)
                    self.end_headers()
                    return
                if endpoint.trailer_mode == "deep":
                    # nested deeper than the JSON decoder recurses
                    payload = ("[" * 100_000 + "]" * 100_000).encode()
                else:
                    content = endpoint.make_content(body)
                    payload = json.dumps(
                        {"choices": [{"message": {"content": content}}]}
                    ).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    def make_content(self, body):
        note = "Routine visit documented. Findings reviewed with the patient."
        if self.trailer_mode == "garbled":
            return f"{note}\nLABELS: {{broken"
        if self.trailer_mode == "none":
            return note
        if self.trailer_mode in ("null", "number"):
            # a refusal or a content filter sends null content
            return {"null": None, "number": 5}[self.trailer_mode]
        # parrot back the trailer the prompt asked for
        prompt = body["messages"][0]["content"]
        trailer = next(
            line for line in prompt.splitlines() if line.startswith("LABELS:")
        )
        if self.trailer_mode == "diagnosis":
            # also write a diagnosis sentence consistent with the trailer
            sentence = self._diagnosis_sentence(json.loads(trailer[len("LABELS:") :]))
            return f"{note} {sentence}\n{trailer}"
        return f"{note}\n{trailer}"

    @staticmethod
    def _diagnosis_sentence(labels):
        subtype_phrases = {
            "Intact Periodontium": " on an intact periodontium",
            "Reduced Periodontium, Stable Periodontitis": " on a reduced periodontium with stable periodontitis",
            "Reduced Periodontium, Non-Periodontitis": " on a reduced periodontium, non-periodontitis",
        }
        parts = ["D:"]
        if labels.get("extent"):
            parts.append(labels["extent"])
        if labels["status"] == "Health":
            parts.append("Gingival health")
        else:
            parts.append(labels["status"])
        if labels.get("stage"):
            parts.append(f"Stage {labels['stage']}")
        if labels.get("grade"):
            parts.append(f"Grade {labels['grade']}")
        sentence = " ".join(parts)
        if labels.get("subtype"):
            sentence += subtype_phrases[labels["subtype"]]
        return sentence + "."

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server.server_port}/v1/chat/completions"

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def endpoint():
    ep = MockEndpoint()
    yield ep
    ep.close()


def config_for(ep, **overrides):
    defaults = dict(
        model_name="test-model",
        endpoint_url=ep.url,
        variants_per_template=10,
        retry_limit=2,
        max_concurrent_requests=4,
    )
    defaults.update(overrides)
    return GenerationConfig(**defaults)


@pytest.fixture
def api_key(monkeypatch):
    monkeypatch.setenv("OPENAI_API_KEY", "test-key")


def test_ten_independent_requests_per_template(endpoint, api_key):
    templates = demo_seed_templates(1)  # 3 templates
    notes = generate_llm(templates, config_for(endpoint))
    assert len(notes) == 30
    assert len(endpoint.bodies) == 30
    # one completion per request, never an n-way call
    assert all("n" not in body for body in endpoint.bodies)
    assert all(len(body["messages"]) == 1 for body in endpoint.bodies)


def test_request_bodies_carry_temperature_and_top_p(endpoint, api_key):
    templates = demo_seed_templates(1)
    generate_llm(templates, config_for(endpoint))
    for body in endpoint.bodies:
        assert body["temperature"] == 1.0
        assert body["top_p"] == 1.0
        assert body["model"] == "test-model"


def test_notes_carry_parsed_records_and_ordering(endpoint, api_key):
    templates = demo_seed_templates(1)
    notes = generate_llm(templates, config_for(endpoint, variants_per_template=3))
    assert [n.note.note_id for n in notes] == [
        f"{t.note.note_id}-llm{v:02d}" for t in templates for v in range(3)
    ]
    for note, template in zip(notes, [t for t in templates for _ in range(3)]):
        assert note.record == template.embedded_record
        assert note.note.provenance is Provenance.LLM_GENERATED
        assert note.annotation_source is AnnotationSource.EMBEDDED
        assert "LABELS" not in note.note.text


def test_missing_api_key_fails_before_any_request(endpoint, monkeypatch):
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    with pytest.raises(ConfigurationError, match="OPENAI_API_KEY"):
        generate_llm(demo_seed_templates(1), config_for(endpoint))
    assert endpoint.bodies == []


def test_persistent_500_fails_after_configured_retries(api_key):
    ep = MockEndpoint(fail_with=500)
    try:
        templates = demo_seed_templates(1)[:1]
        config = config_for(ep, variants_per_template=1, retry_limit=2, max_concurrent_requests=1)
        with pytest.raises(GenerationError, match=templates[0].note.note_id):
            generate_llm(templates, config)
        assert len(ep.bodies) == 3  # initial attempt + 2 retries
    finally:
        ep.close()


def test_4xx_fails_without_retries(api_key):
    ep = MockEndpoint(fail_with=403)
    try:
        templates = demo_seed_templates(1)[:1]
        config = config_for(ep, variants_per_template=1, max_concurrent_requests=1)
        with pytest.raises(GenerationError, match="403"):
            generate_llm(templates, config)
        assert len(ep.bodies) == 1
    finally:
        ep.close()


def _closed_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_connection_refused_fails_after_configured_retries(api_key):
    url = f"http://127.0.0.1:{_closed_port()}/v1/chat/completions"
    config = GenerationConfig(
        model_name="test-model", endpoint_url=url, variants_per_template=1, retry_limit=2
    )
    with pytest.raises(GenerationError, match="gave up after 3 attempts"):
        generate_llm(demo_seed_templates(1)[:1], config)


def test_ambient_proxy_variables_are_ignored(endpoint, api_key, monkeypatch):
    proxy = f"http://127.0.0.1:{_closed_port()}"
    for name in ("HTTP_PROXY", "http_proxy", "ALL_PROXY", "all_proxy"):
        monkeypatch.setenv(name, proxy)
    for name in ("NO_PROXY", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
    notes = generate_llm(demo_seed_templates(1)[:1], config_for(endpoint, variants_per_template=2))
    assert len(notes) == 2
    assert len(endpoint.bodies) == 2


def test_unparseable_trailer_keeps_note_with_blank_record(api_key):
    ep = MockEndpoint(trailer_mode="garbled")
    try:
        templates = demo_seed_templates(1)[:1]
        notes = generate_llm(templates, config_for(ep, variants_per_template=2))
        assert len(notes) == 2
        assert all(n.record is None for n in notes)
    finally:
        ep.close()


@pytest.mark.parametrize("mode, shown", [("null", "None"), ("number", "5")])
def test_completion_content_that_is_no_string_is_malformed(api_key, mode, shown):
    ep = MockEndpoint(trailer_mode=mode)
    try:
        templates = demo_seed_templates(1)[:1]
        config = config_for(ep, variants_per_template=1, max_concurrent_requests=1)
        with pytest.raises(
            GenerationError, match=f"malformed completion payload: content must be a string, got {shown}"
        ):
            generate_llm(templates, config)
        assert len(ep.bodies) == 1  # a malformed payload is not retried
    finally:
        ep.close()


def test_completion_payload_nested_too_deeply_is_malformed(api_key):
    ep = MockEndpoint(trailer_mode="deep")
    try:
        templates = demo_seed_templates(1)[:1]
        config = config_for(ep, variants_per_template=1, max_concurrent_requests=1)
        # The text after the prefix is CPython's wording, which differs between versions.
        with pytest.raises(GenerationError, match="malformed completion payload: "):
            generate_llm(templates, config)
        assert len(ep.bodies) == 1  # a malformed payload is not retried
    finally:
        ep.close()


def test_config_validation():
    with pytest.raises(ValueError):
        GenerationConfig(model_name="m", endpoint_url="u", temperature=0.0)
    with pytest.raises(ValueError):
        GenerationConfig(model_name="m", endpoint_url="u", top_p=2.5)
    with pytest.raises(ValueError):
        GenerationConfig(model_name="m", endpoint_url="u", variants_per_template=0)
    with pytest.raises(ValueError, match="max_concurrent_requests must be at least 1"):
        GenerationConfig(model_name="m", endpoint_url="u", max_concurrent_requests=0)
    with pytest.raises(ValueError, match="retry_limit must be non-negative"):
        GenerationConfig(model_name="m", endpoint_url="u", retry_limit=-1)


def test_prompt_contains_trailer_instruction():
    template = demo_seed_templates(1)[0]
    assert trailer_for_record(template.embedded_record) in build_prompt(template)
