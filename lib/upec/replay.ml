let check nl cex = (Certval.validate nl cex).Certval.v_ok
