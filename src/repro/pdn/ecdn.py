"""Microsoft eCDN (§VI Discussion).

After acquiring Peer5, Microsoft folded the service into Teams/Stream
as an *enterprise* CDN. Two properties matter for the paper's follow-up
measurement:

- the API key is the **Microsoft tenant id**, shared across the
  enterprise and *no longer publicly visible* — it never appears in page
  source, so the key-scraping step of the free-riding attack has nothing
  to scrape;
- the **silent simulator** runs peers in headless browsers to exercise
  data transmission. Against it, the paper observed no peer connection
  in the direct-pollution test but confirmed that *video segment
  pollution still works* — the integrity gap survived the acquisition.
"""

from __future__ import annotations

from repro.core.testbed import TestBed, build_test_bed
from repro.environment import Environment
from repro.pdn.auth import AuthPolicyKind
from repro.pdn.billing import BillingModel
from repro.pdn.provider import ProviderProfile

MSECDN = ProviderProfile(
    name="msecdn",
    sdk_host="ecdn.microsoft.com",
    signaling_host="signal.ecdn.microsoft.com",
    auth_policy=AuthPolicyKind.API_KEY_ONLY,  # the tenant id *is* the key...
    billing_model=BillingModel.NONE,  # bundled with the enterprise license
    sdk_url_pattern="https://ecdn.microsoft.com/sdk/{key}/loader.js",
    android_namespace="com.microsoft.ecdn",
    slow_start_segments=2,
)


def build_ecdn_test_bed(env: Environment, **kwargs) -> TestBed:
    """An eCDN deployment: same stack, but the tenant id stays out of
    the page source (delivered through enterprise configuration)."""
    bed = build_test_bed(env, MSECDN, domain="stream.contoso.example", **kwargs)
    bed.site.landing.embed.credential_in_page = False
    return bed


def tenant_id_exposed(bed: TestBed, html: str) -> bool:
    """Would a scraper find the tenant id in this page? (§VI: it must not.)"""
    return bed.api_key in html
