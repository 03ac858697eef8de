"""Desk-scale latent adversarial imitation from observations, plus an
exact tabular verifier for the suboptimality bounds. Importing the
package loads no submodule: import the ones you use."""
