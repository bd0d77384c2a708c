"""API-key authentication for the service tier.

Two authenticators share one interface — ``authenticate(headers) ->
tenant_id``:

* :class:`NullAuthenticator` (the ``--auth off`` default) ignores
  credentials entirely and resolves every request to the implicit
  ``default`` tenant, preserving the single-operator behaviour the
  service always had.
* :class:`ApiKeyAuthenticator` (``--auth require``) demands an
  ``Authorization: Bearer rk_<key_id>.<secret>`` header and resolves it
  against the catalog's ``api_keys`` table.  Secrets are stored only as
  SHA-256 digests and compared with :func:`hmac.compare_digest`
  (constant-time over the digest), so neither a catalog leak nor a
  timing probe recovers a usable credential.

Failures map to two deliberately coarse errors: :class:`AuthRequired`
(401 + ``WWW-Authenticate: Bearer``) when no parseable credential was
presented, and :class:`AuthForbidden` (403) for any credential that does
not resolve — unknown key id, wrong secret, and revoked key are
indistinguishable from the outside.
"""

from __future__ import annotations

from repro.service.catalog import DEFAULT_TENANT, Catalog
from repro.service.errors import AuthRequired

__all__ = [
    "Authenticator",
    "NullAuthenticator",
    "ApiKeyAuthenticator",
    "make_authenticator",
]


class Authenticator:
    """Resolve a request's headers to a tenant id (or raise 401/403)."""

    def authenticate(self, headers) -> str:
        raise NotImplementedError


class NullAuthenticator(Authenticator):
    """``--auth off``: every request is the implicit default tenant."""

    def authenticate(self, headers) -> str:
        return DEFAULT_TENANT


class ApiKeyAuthenticator(Authenticator):
    """``--auth require``: Bearer API keys resolved via the catalog."""

    def __init__(self, catalog: Catalog):
        self._catalog = catalog

    def authenticate(self, headers) -> str:
        header = headers.get("Authorization")
        if header is None:
            raise AuthRequired("missing Authorization header")
        scheme, _, token = header.strip().partition(" ")
        token = token.strip()
        if scheme.lower() != "bearer" or not token:
            raise AuthRequired(
                "expected 'Authorization: Bearer <api-key>' credentials"
            )
        # Raises AuthForbidden for anything that does not resolve.
        return self._catalog.resolve_api_key(token)


def make_authenticator(mode: str, catalog: Catalog) -> Authenticator:
    """Build the authenticator for an ``--auth`` mode string."""
    if mode == "off":
        return NullAuthenticator()
    if mode == "require":
        return ApiKeyAuthenticator(catalog)
    raise ValueError(f"unknown auth mode {mode!r} (use 'off' or 'require')")
