CREATE TABLE Product (
    pid INTEGER PRIMARY KEY,
    pname VARCHAR(255),
    price INTEGER,
    detailId UUID
);
CREATE TABLE ProductDetail (
    detailId UUID PRIMARY KEY,
    descr VARCHAR(255),
    image BLOB,
    weight INTEGER
);
CREATE TABLE Orders (
    oid INTEGER PRIMARY KEY,
    pid INTEGER,
    quantity INTEGER,
    total INTEGER,
    shipId UUID
);
CREATE TABLE Shipment (
    shipId UUID PRIMARY KEY,
    shipStreet VARCHAR(255),
    shipCity VARCHAR(255)
);
CREATE TABLE Customer (
    cid INTEGER PRIMARY KEY,
    cname VARCHAR(255),
    contactId UUID,
    addrId UUID
);
CREATE TABLE Contact (
    contactId UUID PRIMARY KEY,
    email VARCHAR(255),
    phone VARCHAR(255)
);
CREATE TABLE CustAddr (
    addrId UUID PRIMARY KEY,
    street VARCHAR(255)
);
