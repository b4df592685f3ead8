"""Semi-supervised domain adaptation with dynamically weighted kernel alignment.

A labeled source domain and an unlabeled target domain are aligned during
training through two Gaussian-kernel statistics: the marginal discrepancy
between embedding clouds and its class-conditional variant fed by
confidence-filtered pseudo-labels. Scheduled weights trade the two off as
the classifier matures.
"""

__version__ = "0.1.0"
