"""querybn: discrete Bayesian nets scored against a distribution of queries.

The library separates the distribution a net is *sampled* from and the
distribution of *questions* it will be asked.  Nets are scored by the
query-weighted squared error of their answers, fitted either by observed
frequency estimates or by analytic-gradient descent against labeled
queries, and everything is seeded and reproducible.
"""

from .network import (Assignment, BayesNet, Cpt, CycleError, Dag, EntryId,
                      InvalidNetError, Variable, clamp_net, clamp_row, d_separated,
                      load_net, net_to_dict, relevant_entries, requisite_cpd_vars,
                      save_net, validate)
from .inference import (EnumerationCapExceeded, Factor, ZeroEvidence, answer,
                        cond_prob, enumerate_joint, enumerate_marginal,
                        family_posterior, is_markov_blanket_query, marginal,
                        mb_posterior, mb_query)
from .queries import (LabeledQuery, QueryDistribution, QueryPattern, StatQuery,
                      expand_pattern, label_queries, load_queries, parse_queries,
                      sample_query, save_queries)
from .sampling import (CapExceeded, Dataset, collect_until_matched, cond_freq,
                       forward_sample, load_dataset, save_dataset)
from .scoring import (ErrReport, QueryScore, UnmatchedEvidence, ZeroProbability,
                      empirical_err, empirical_err_from_events, ll_decomposition,
                      nll, true_err, true_kl)
from .learning import (FitOptions, FitResult, TraceRow, db_dentry, derr_dentry,
                       derr_dentry_mb, fit_cpt, fit_cpt_from_events, flatten_grad,
                       grad, ofe)
from .bounds import m_d, m_lsq, m_prime_d, m_prime_lsq, m_sq
from . import experiments, random_nets

__version__ = "0.1.0"
