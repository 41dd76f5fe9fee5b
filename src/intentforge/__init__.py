"""Scene-conditioned, statistical, and hybrid trajectory intention points
over vectorized lane maps, plus map-conformance analysis tooling. The
package exports nothing: import each name from its module."""
