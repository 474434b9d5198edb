#!/usr/bin/env python3
"""Application acceleration via dependency-driven prefetching (paper Fig. 1).

The paper's motivating application: knowing that TED's ``android_ad.json``
response carries the URL of the next request (and that *that* response
carries the ad video URL, which streams into the media player), a proxy can
prefetch the whole chain as soon as the first response passes through.

This example builds such a prefetcher from Extractocol's output alone:

1. analyze the TED APK → transactions + inter-transaction dependencies,
2. install a prefetching proxy that, whenever a response matches a
   transaction other requests depend on, extracts the dependent URLs and
   fetches them ahead of time,
3. replay the user's session and report the prefetch hit rate.

Run:  python examples/prefetcher.py
"""

from __future__ import annotations

import json

from repro import AnalysisConfig, Extractocol
from repro.corpus import get_spec
from repro.runtime.fuzzing import ManualUiFuzzer
from repro.runtime.httpstack import Network
from repro.signature.matcher import transaction_matches


class PrefetchingProxy:
    """Sits on the network path; uses the dependency graph to prefetch."""

    def __init__(self, report, upstream: Network) -> None:
        self.report = report
        self.upstream = upstream
        self.cache: dict[str, object] = {}
        self.prefetched: list[str] = []
        self.hits: list[str] = []
        # dependency index: src transaction -> (response path, dependents)
        self.dependents: dict[int, list] = {}
        for txn in report.transactions:
            for dep in txn.depends_on:
                if dep.dst_field == "uri":
                    self.dependents.setdefault(dep.src_txn, []).append(dep)

    def send(self, request):
        if request.url in self.cache:
            self.hits.append(request.url)
            return self.cache.pop(request.url)
        response = self.upstream.send(request)
        self._maybe_prefetch(request, response)
        return response

    def _maybe_prefetch(self, request, response) -> None:
        match = next(
            (
                t
                for t in self.report.transactions
                if transaction_matches(t, request.method, request.url,
                                       request.body)
            ),
            None,
        )
        if match is None or match.txn_id not in self.dependents:
            return
        for dep in self.dependents[match.txn_id]:
            url = self._extract(response, dep.src_path)
            if url and url.startswith("http"):
                from repro.runtime.httpstack import HttpRequest

                self.cache[url] = self.upstream.send(
                    HttpRequest("GET", url)
                )
                self.prefetched.append(url)

    @staticmethod
    def _extract(response, path: str):
        """Walk a response:$.a.[].b path into the JSON body."""
        try:
            node = json.loads(response.body)
        except (ValueError, TypeError):
            return None
        for part in path.lstrip("$.").split("."):
            if not part:
                continue
            if part == "[]":
                if isinstance(node, list) and node:
                    node = node[0]
                else:
                    return None
            elif isinstance(node, dict):
                node = node.get(part)
            else:
                return None
        return node if isinstance(node, str) else None


def main() -> None:
    spec = get_spec("ted")
    print("1. analyzing the TED APK ...")
    report = Extractocol(AnalysisConfig(async_heuristic=True)).analyze(
        spec.build_apk()
    )
    chains = sum(len(t.depends_on) for t in report.transactions)
    print(f"   {len(report.transactions)} transactions, "
          f"{chains} dependency edges\n")

    print("2. dependency chains a prefetcher can exploit:")
    for txn in report.transactions:
        for dep in txn.depends_on:
            if dep.dst_field == "uri":
                print(f"   txn#{dep.src_txn} response[{dep.src_path}] "
                      f"-> txn#{dep.dst_txn} URI")
    print()

    print("3. replaying the app session through the prefetching proxy ...")
    upstream = spec.build_network()
    proxy = PrefetchingProxy(report, upstream)

    # route the app's traffic through the proxy
    class ProxiedNetwork(Network):
        def __init__(self):
            super().__init__(trace=upstream.trace)

        def send(self, request):
            return proxy.send(request)

    ManualUiFuzzer().fuzz(spec.build_apk(), ProxiedNetwork())
    print(f"   prefetched : {len(proxy.prefetched)} objects")
    for url in proxy.prefetched:
        print(f"     - {url}")
    print(f"   cache hits : {len(proxy.hits)} requests served ahead of time")
    for url in proxy.hits:
        print(f"     - {url}")
    assert proxy.hits, "prefetching should have produced at least one hit"
    print("\nthe ad query/video chain was served from cache — the Fig. 1 win.")


if __name__ == "__main__":
    main()
