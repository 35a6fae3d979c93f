"""The names of the paper's Table I campaigns.

They live apart from :mod:`repro.workloads.campaign`, which imports the
simulator, so that ``tdat campaign --help`` and ``tdat report --help``
list them without loading it.
"""

ISP_A_VENDOR = "ISP_A-Vendor"
ISP_A_QUAGGA = "ISP_A-Quagga"
ROUTEVIEWS = "RV"

#: every campaign name, in ``CAMPAIGNS``'s order.
CAMPAIGN_NAMES = (ISP_A_VENDOR, ISP_A_QUAGGA, ROUTEVIEWS)
