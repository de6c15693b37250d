"""OpenAI-compatible chat-completions client for synthetic note generation.

Each template variant is requested as its own single-completion call (never
one n-way call), and responses are re-ordered to (template order, variant
index) regardless of completion order.
"""

from __future__ import annotations

import json
import os
import urllib.parse

from .corpus import AnnotatedNote, AnnotationSource, Note, Provenance
from .synthesis import (
    DEFAULT_PROMPT_SECTIONS,
    GenerationConfig,
    PromptSections,
    SeedTemplate,
    build_prompt,
    parse_label_trailer,
)


class ConfigurationError(ValueError):
    """The client is not runnable as configured (e.g. missing API key)."""


class GenerationError(RuntimeError):
    """A generation request failed after exhausting its retries."""


REQUEST_TIMEOUT = 60.0  # seconds a chat-completion request may wait for the endpoint


def _complete(
    opener: urllib.request.OpenerDirector, config: GenerationConfig, api_key: str, prompt: str
) -> str:
    """One chat completion with retries on transport failures and 5xx."""
    import http.client
    import urllib.error
    import urllib.request

    body = {
        "model": config.model_name,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": config.temperature,
        "top_p": config.top_p,
    }
    request = urllib.request.Request(
        config.endpoint_url,
        data=json.dumps(body).encode("utf-8"),
        headers={"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"},
        method="POST",
    )
    attempts = 1 + config.retry_limit
    last_error = None
    for _ in range(attempts):
        try:
            with opener.open(request, timeout=REQUEST_TIMEOUT) as response:
                status, payload = response.status, response.read()
        except urllib.error.HTTPError as exc:
            status, payload = exc.code, b""
            exc.close()
        except (OSError, http.client.HTTPException) as exc:
            last_error = str(exc)
            continue
        if status >= 500:
            last_error = f"HTTP {status}"
            continue
        if status != 200:
            raise GenerationError(f"endpoint rejected request: HTTP {status}")
        try:
            content = json.loads(payload)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
            raise GenerationError(f"malformed completion payload: {exc}") from exc
        if not isinstance(content, str):
            raise GenerationError(
                f"malformed completion payload: content must be a string, got {content!r:.60}"
            )
        return content
    raise GenerationError(f"gave up after {attempts} attempts: {last_error}")


def generate_llm(
    templates: list[SeedTemplate],
    config: GenerationConfig,
    sections: PromptSections = DEFAULT_PROMPT_SECTIONS,
) -> list[AnnotatedNote]:
    """Generate variants_per_template notes per template over the wire.

    The label trailer of each response becomes the note's embedded record;
    an unparseable trailer leaves the record blank for QA to flag rather
    than dropping the note.
    """
    import urllib.request
    from concurrent.futures import ThreadPoolExecutor

    url = urllib.parse.urlsplit(config.endpoint_url)
    if url.scheme not in ("http", "https") or not url.hostname:
        raise ConfigurationError(
            f"endpoint_url must be an http or https URL with a host, got {config.endpoint_url!r}"
        )
    api_key = os.environ.get(config.api_key_env)
    if not api_key:
        raise ConfigurationError(
            f"API key environment variable {config.api_key_env!r} is not set"
        )
    # The endpoint comes from config, so ambient proxy variables are ignored.
    opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    jobs = [
        (template, variant)
        for template in templates
        for variant in range(config.variants_per_template)
    ]

    def run(job) -> AnnotatedNote:
        template, variant = job
        prompt = build_prompt(template, sections)
        try:
            content = _complete(opener, config, api_key, prompt)
        except GenerationError as exc:
            raise GenerationError(
                f"template {template.note.note_id!r} variant {variant}: {exc}"
            ) from exc
        body, record = parse_label_trailer(content)
        note = Note(
            note_id=f"{template.note.note_id}-llm{variant:02d}",
            site_id=template.note.site_id,
            text=body,
            provenance=Provenance.LLM_GENERATED,
        )
        return AnnotatedNote(
            note=note, record=record, annotation_source=AnnotationSource.EMBEDDED
        )

    with ThreadPoolExecutor(max_workers=config.max_concurrent_requests) as executor:
        return list(executor.map(run, jobs))
